//! Weight initializers.

use rand::rngs::StdRng;
use rand::Rng;

/// Fills `buf` with samples from `U(-limit, limit)`.
pub fn uniform(buf: &mut [f32], limit: f32, rng: &mut StdRng) {
    for x in buf {
        *x = rng.gen_range(-limit..limit);
    }
}

/// Xavier/Glorot uniform initialization for a `fan_in -> fan_out` layer.
pub fn xavier_uniform(buf: &mut [f32], fan_in: usize, fan_out: usize, rng: &mut StdRng) {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(buf, limit, rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0f32; 1000];
        xavier_uniform(&mut buf, 50, 50, &mut rng);
        let limit = (6.0f32 / 100.0).sqrt();
        assert!(buf.iter().all(|x| x.abs() <= limit));
        // Not degenerate.
        assert!(buf.iter().any(|x| x.abs() > limit / 10.0));
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = vec![0.0f32; 16];
            xavier_uniform(&mut buf, 8, 8, &mut rng);
            buf
        };
        assert_eq!(sample(7), sample(7));
        assert_ne!(sample(7), sample(8));
    }
}
