// Fixture (numeric scope): `nn::tensor::log_softmax` before `nn::math`,
// with a libm `exp` per element and a libm `ln` per row. Must trigger
// exactly `libm-call`, twice.
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
    row.iter().map(|&v| v - max - log_sum).collect()
}
