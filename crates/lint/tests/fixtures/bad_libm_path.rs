// Fixture (numeric scope): a libm function passed by path, as
// `Tensor::tanh` once did. Must trigger exactly `libm-call`.
pub fn tanh(t: &Tensor) -> Tensor {
    t.map(f32::tanh)
}
