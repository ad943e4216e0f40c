// Fixture (numeric scope): the first-party functions, methods of other
// types that share a libm name, and libm in a test as the reference the
// functions are measured against. Must be clean.
use dbcopilot_nn::math;

pub fn sigmoid_all(v: &mut [f32]) {
    math::sigmoid_in_place(v);
}

pub fn log_sum(sum: f32) -> f32 {
    math::ln(sum) + math::exp(-sum).max(f32::MIN_POSITIVE)
}

pub fn encode(tape: &mut Tape, proj: ValId, q: &Tensor) -> (ValId, Tensor) {
    (tape.tanh(proj), Tensor::tanh(q))
}

#[cfg(test)]
mod tests {
    #[test]
    fn close_to_libm() {
        let x = 0.5f32;
        assert!((super::log_sum(x) - (x.ln() + (-x).exp())).abs() < 1e-6);
        assert!(f64::tanh(0.5) > 0.0);
    }
}
