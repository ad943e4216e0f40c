// Fixture (default scope): the transpose-free kernel, a transpose that is
// kept (not a matmul operand), one inside an argument that is not itself the
// transpose, and the transposing form as a test oracle. Must be clean.
pub fn scores(h: &Tensor, rows: &Tensor) -> Tensor {
    h.matmul_nt(rows)
}

pub fn freeze(w: &Tensor) -> Quantized {
    Quantized::from_tensor(&w.transpose())
}

pub fn projected(h: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    h.matmul(&w.transpose().add(b))
}

#[cfg(test)]
mod tests {
    #[test]
    fn matches_the_transposing_form() {
        assert_eq!(scores(&h(), &rows()), h().matmul(&rows().transpose()));
    }
}
