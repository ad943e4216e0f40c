// Fixture (default scope): both spellings of a product against a transpose
// built on the spot. Must trigger exactly `transposed-operand`, twice.
pub fn scores(h: &Tensor, rows: &Tensor) -> Tensor {
    h.matmul(&rows.gather(&[1, 2]).transpose())
}

pub fn weight_grad(x: &Tensor, g: &Tensor) -> Tensor {
    x.transpose().matmul(g)
}
