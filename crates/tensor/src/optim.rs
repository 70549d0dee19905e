//! Optimizers operating on flat parameter/gradient vectors.
//!
//! Distributed RL in this reproduction applies the *aggregated* gradient to
//! an identical optimizer replica on every worker (paper §4.1,
//! "decentralized weight storage"), so optimizers work on the flattened
//! vectors produced by [`crate::grad_vec`] rather than on modules directly.

use serde::{Deserialize, Serialize};

/// An optimizer over flat parameter vectors.
pub trait Optimizer {
    /// Applies one update step: mutates `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the first call's.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer (Kingma & Ba).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the usual defaults (`beta1=0.9`, `beta2=0.999`, `eps=1e-8`).
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(self.m.len(), params.len(), "parameter count changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Clips a gradient vector in place to a maximum L2 norm. Returns the norm
/// before clipping. Standard practice in the paper's reference trainers.
pub fn clip_grad_norm(grads: &mut [f32], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_descends_a_quadratic() {
        // f(x) = x^2, grad = 2x. Should converge to 0.
        let mut x = vec![5.0f32];
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = vec![2.0 * x[0]];
            opt.step(&mut x, &g);
        }
        assert!(x[0].abs() < 1e-3);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut x = vec![3.0f32, -4.0];
        let mut opt = Adam::new(0.05);
        for _ in 0..500 {
            let g: Vec<f32> = x.iter().map(|v| 2.0 * v).collect();
            opt.step(&mut x, &g);
        }
        assert!(x.iter().all(|v| v.abs() < 1e-2), "{x:?}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.1);
        opt.step(&mut x, &[123.0]);
        // Bias correction makes the first step ~= lr regardless of grad scale.
        assert!((x[0] + 0.1).abs() < 1e-3);
    }

    #[test]
    fn identical_replicas_stay_identical() {
        // The decentralized-weight-storage invariant (paper §4.1): applying
        // the same aggregated gradient to identical optimizer replicas keeps
        // parameters bit-identical.
        let mut a = vec![1.0f32, -2.0, 0.5];
        let mut b = a.clone();
        let mut oa = Adam::new(0.01);
        let mut ob = Adam::new(0.01);
        for step in 0..50 {
            let g: Vec<f32> = a.iter().map(|v| v * 0.3 + step as f32 * 0.01).collect();
            oa.step(&mut a, &g);
            ob.step(&mut b, &g);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut g = vec![3.0f32, 4.0];
        let norm = clip_grad_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let new_norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);

        let mut small = vec![0.1f32];
        clip_grad_norm(&mut small, 1.0);
        assert_eq!(small, vec![0.1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn step_rejects_mismatched_lengths() {
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [0.0], &[1.0, 2.0]);
    }
}
