//! # iswitch-tensor
//!
//! A small, dependency-light tensor and neural-network substrate for the
//! iSwitch (ISCA '19) reproduction. It provides exactly what distributed RL
//! training needs:
//!
//! * dense `f32` [`Tensor`]s with the linear algebra used by MLP policies,
//! * [`Module`]s with **manual backpropagation** ([`Linear`], [`ReLU`],
//!   [`Tanh`], [`Sequential`], the [`mlp`] builder),
//! * parameter/gradient **flattening** ([`param_vec`], [`grad_vec`],
//!   [`set_param_vec`]) — the contiguous gradient vector is the unit that
//!   iSwitch segments into network packets,
//! * losses ([`mse`], [`huber`], [`cross_entropy_with_logits`],
//!   [`softmax_entropy`]) and optimizers ([`Sgd`], [`Adam`]).
//!
//! ## Example
//!
//! ```
//! use iswitch_tensor::{grad_vec, mlp, mse, zero_grads, Activation, Module, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut net = mlp(&[2, 16, 1], Activation::Tanh, None, &mut rng);
//! let x = Tensor::from_rows(vec![vec![0.1, -0.2]]);
//! let target = Tensor::from_rows(vec![vec![1.0]]);
//!
//! zero_grads(&mut net);
//! let y = net.forward(&x);
//! let (_loss, dy) = mse(&y, &target);
//! net.backward(&dy);
//! let gradient_vector = grad_vec(&mut net); // what goes on the wire
//! assert_eq!(gradient_vector.len(), net.param_count());
//! ```

#![warn(missing_docs)]

mod init;
mod loss;
mod nn;
mod optim;
mod tensor;

pub use init::{uniform, xavier_uniform};
pub use loss::{cross_entropy_with_logits, huber, log_softmax, mse, softmax, softmax_entropy};
pub use nn::{
    grad_vec, mlp, param_vec, set_param_vec, zero_grads, Activation, Linear, Module, ReLU,
    Sequential, Tanh,
};
pub use optim::{clip_grad_norm, Adam, Optimizer, Sgd};
pub use tensor::Tensor;
