// Fixture (numeric scope): the GRU's sigmoid as `nn::layers` had it before
// `nn::math` — a scalar libm `exp` per gate element. Must trigger exactly
// `libm-call`.
#[inline]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}
