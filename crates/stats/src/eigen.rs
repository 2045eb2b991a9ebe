//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The Jacobi method repeatedly applies plane rotations that zero one
//! off-diagonal element at a time. For the small symmetric matrices produced
//! by the characterization pipeline (covariance/correlation matrices of 20
//! workload characteristics) it converges in a handful of sweeps and is
//! numerically very well behaved.
//!
//! The solver rotates flat row-major buffers rather than indexing a
//! [`Matrix`] element by element. Its output is pinned bit for bit, so the
//! rotation order and the floating-point expressions are the contract:
//! sweeps visit `(p, q)` in row-major order of the upper triangle; `theta`,
//! `t`, `c` and `s` keep their exact expressions (no `mul_add`); each
//! rotation updates columns `p` and `q` of A first, then rows `p` and `q`
//! from that result, then columns `p` and `q` of V. Mirroring one triangle
//! onto the other instead of running the row pass is mathematically the same
//! but moves bits, because A is not bitwise symmetric between rotations; it
//! is not allowed. A test keeps the element-indexed original as an oracle.

use crate::matrix::Matrix;
use crate::StatsError;

/// Result of a symmetric eigendecomposition, sorted by descending eigenvalue.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns; column `k` pairs with `values[k]`.
    pub vectors: Matrix,
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Eigenpairs are returned sorted by descending eigenvalue, with each
/// eigenvector's sign normalized so its largest-magnitude entry is positive
/// (eigenvectors are only defined up to sign; fixing it makes results
/// reproducible).
///
/// # Errors
///
/// - [`StatsError::InvalidArgument`] if the matrix is not square/symmetric or
///   contains non-finite values.
/// - [`StatsError::NoConvergence`] if the off-diagonal mass does not vanish
///   within the sweep limit (does not happen for well-formed input).
///
/// # Example
///
/// ```
/// use stat_analysis::{eigen, matrix::Matrix};
///
/// let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]])?;
/// let e = eigen::decompose_symmetric(&m)?;
/// assert!((e.values[0] - 3.0).abs() < 1e-10);
/// assert!((e.values[1] - 1.0).abs() < 1e-10);
/// # Ok::<(), stat_analysis::StatsError>(())
/// ```
pub fn decompose_symmetric(m: &Matrix) -> Result<EigenDecomposition, StatsError> {
    if m.rows() != m.cols() {
        return Err(StatsError::InvalidArgument {
            what: "eigendecomposition requires a square matrix",
        });
    }
    if !m.is_symmetric(1e-8) {
        return Err(StatsError::InvalidArgument {
            what: "eigendecomposition requires a symmetric matrix",
        });
    }
    if m.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(StatsError::InvalidArgument {
            what: "matrix contains non-finite values",
        });
    }
    let n = m.rows();
    // Row-major n×n buffers: element (r, c) lives at r * n + c.
    let mut a = m.as_slice().to_vec();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&a, n);
        if off < 1e-12 {
            return Ok(sorted(&a, &v, n));
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                // Compute the Jacobi rotation (c, s) that annihilates a[p][q].
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation to A on both sides: A <- J^T A J. The
                // column pass runs first and the row pass reads its output.
                rotate_columns(&mut a, n, p, q, c, s);
                let (head, tail) = a.split_at_mut(q * n);
                let row_p = &mut head[p * n..(p + 1) * n];
                for (apk, aqk) in row_p.iter_mut().zip(&mut tail[..n]) {
                    let (x, y) = (*apk, *aqk);
                    *apk = c * x - s * y;
                    *aqk = s * x + c * y;
                }
                // Accumulate eigenvectors: V <- V J.
                rotate_columns(&mut v, n, p, q, c, s);
            }
        }
    }
    if off_diagonal_norm(&a, n) < 1e-9 {
        // Converged to slightly looser tolerance; still acceptable.
        return Ok(sorted(&a, &v, n));
    }
    Err(StatsError::NoConvergence {
        routine: "jacobi eigendecomposition",
        iterations: MAX_SWEEPS,
    })
}

/// Rotates columns `p` and `q` of the row-major n×n `m` by `(c, s)`.
fn rotate_columns(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in m.chunks_exact_mut(n) {
        let (x, y) = (row[p], row[q]);
        row[p] = c * x - s * y;
        row[q] = s * x + c * y;
    }
}

/// Frobenius norm of the strict upper triangle, summed row by row.
fn off_diagonal_norm(a: &[f64], n: usize) -> f64 {
    let mut acc = 0.0;
    for (i, row) in a.chunks_exact(n).enumerate() {
        for x in &row[i + 1..] {
            acc += x * x;
        }
    }
    acc.sqrt()
}

fn sorted(a: &[f64], v: &[f64], n: usize) -> EigenDecomposition {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a[j * n + j]
            .partial_cmp(&a[i * n + i])
            .expect("eigenvalues are finite")
    });
    let values: Vec<f64> = order.iter().map(|&i| a[i * n + i]).collect();
    let mut vectors = vec![0.0; n * n];
    for (new_col, &old_col) in order.iter().enumerate() {
        // Sign convention: largest-magnitude entry positive.
        let sign = v
            .chunks_exact(n)
            .map(|row| row[old_col])
            .max_by(|x, y| x.abs().partial_cmp(&y.abs()).expect("finite"))
            .map(|x| if x < 0.0 { -1.0 } else { 1.0 })
            .unwrap_or(1.0);
        for (out, row) in vectors.chunks_exact_mut(n).zip(v.chunks_exact(n)) {
            out[new_col] = sign * row[old_col];
        }
    }
    let vectors = Matrix::from_vec(n, n, vectors).expect("n > 0");
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standardize::Standardizer;

    /// The Jacobi solver written element by element through `Matrix`'s
    /// indexer: the oracle the flat-buffer solver must match bit for bit.
    fn reference_decompose(m: &Matrix) -> Result<EigenDecomposition, StatsError> {
        if m.rows() != m.cols() {
            return Err(StatsError::InvalidArgument {
                what: "eigendecomposition requires a square matrix",
            });
        }
        if !m.is_symmetric(1e-8) {
            return Err(StatsError::InvalidArgument {
                what: "eigendecomposition requires a symmetric matrix",
            });
        }
        if m.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidArgument {
                what: "matrix contains non-finite values",
            });
        }
        let n = m.rows();
        let mut a = m.clone();
        let mut v = Matrix::identity(n)?;
        for _sweep in 0..MAX_SWEEPS {
            if reference_off_diagonal_norm(&a) < 1e-12 {
                return Ok(reference_sorted(a, v));
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    let apq = a[(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        if reference_off_diagonal_norm(&a) < 1e-9 {
            return Ok(reference_sorted(a, v));
        }
        Err(StatsError::NoConvergence {
            routine: "jacobi eigendecomposition",
            iterations: MAX_SWEEPS,
        })
    }

    fn reference_off_diagonal_norm(a: &Matrix) -> f64 {
        let n = a.rows();
        let mut acc = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                acc += a[(i, j)] * a[(i, j)];
            }
        }
        acc.sqrt()
    }

    fn reference_sorted(a: Matrix, v: Matrix) -> EigenDecomposition {
        let n = a.rows();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| a[(j, j)].partial_cmp(&a[(i, i)]).unwrap());
        let values: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
        let mut vectors = Matrix::zeros(n, n).unwrap();
        for (new_col, &old_col) in order.iter().enumerate() {
            let col: Vec<f64> = (0..n).map(|r| v[(r, old_col)]).collect();
            let sign = col
                .iter()
                .cloned()
                .max_by(|x, y| x.abs().partial_cmp(&y.abs()).unwrap())
                .map(|x| if x < 0.0 { -1.0 } else { 1.0 })
                .unwrap_or(1.0);
            for r in 0..n {
                vectors[(r, new_col)] = sign * col[r];
            }
        }
        EigenDecomposition { values, vectors }
    }

    /// splitmix64: a seeded stream for the property test (this crate has no
    /// RNG dependency).
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1).
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A signed value whose magnitude spans 12 decades, 1e-6 to 1e6.
        fn wide(&mut self) -> f64 {
            let sign = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            sign * 10f64.powf(self.unit() * 12.0 - 6.0)
        }
    }

    /// A seeded symmetric n×n matrix with entries over 12 decades; about a
    /// quarter of its off-diagonal pairs are exactly zero.
    fn random_symmetric(rng: &mut SplitMix, n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n).unwrap();
        for i in 0..n {
            m[(i, i)] = rng.wide();
            for j in i + 1..n {
                let x = if rng.next_u64().is_multiple_of(4) {
                    0.0
                } else {
                    rng.wide()
                };
                m[(i, j)] = x;
                m[(j, i)] = x;
            }
        }
        m
    }

    /// The correlation matrix of 194 seeded observations of 20 partly
    /// dependent variables: the shape the PCA pipeline decomposes.
    fn standardized_covariance(rng: &mut SplitMix) -> Matrix {
        let (rows, cols) = (194, 20);
        let mut data = Matrix::zeros(rows, cols).unwrap();
        for r in 0..rows {
            let shared = rng.unit();
            for c in 0..cols {
                let own = rng.unit() * 10f64.powi(c as i32 % 7 - 3);
                data[(r, c)] = own + shared * (c % 3) as f64;
            }
        }
        Standardizer::fit_transform(&data)
            .unwrap()
            .covariance()
            .unwrap()
    }

    fn assert_bit_identical(m: &Matrix, case: &str) {
        let bits = |e: &EigenDecomposition| {
            let values: Vec<u64> = e.values.iter().map(|x| x.to_bits()).collect();
            let vectors: Vec<u64> = e.vectors.as_slice().iter().map(|x| x.to_bits()).collect();
            (values, vectors)
        };
        match (decompose_symmetric(m), reference_decompose(m)) {
            (Ok(new), Ok(old)) => assert!(bits(&new) == bits(&old), "{case}: bits differ"),
            (Err(new), Err(old)) => assert_eq!(new, old, "{case}"),
            (new, old) => panic!("{case}: solver {new:?}, reference {old:?}"),
        }
    }

    #[test]
    fn flat_solver_matches_indexed_reference_bit_for_bit() {
        let mut rng = SplitMix(0x5eed_e16e);
        for n in [1, 2, 3, 5, 8, 20, 31] {
            for i in 0..30 {
                assert_bit_identical(&random_symmetric(&mut rng, n), &format!("n={n} #{i}"));
            }
        }
        let diagonal = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1e-7, 0.0],
            vec![0.0, 0.0, 4e5],
        ])
        .unwrap();
        assert_bit_identical(&diagonal, "diagonal");
        assert_bit_identical(
            &standardized_covariance(&mut rng),
            "standardized covariance",
        );
        let asymmetric = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert_bit_identical(&asymmetric, "asymmetric");
        let non_finite = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![f64::NAN, 1.0]]).unwrap();
        assert_bit_identical(&non_finite, "non-finite");
    }

    fn reconstruct(e: &EigenDecomposition) -> Matrix {
        // V * diag(values) * V^T
        let n = e.values.len();
        let mut d = Matrix::zeros(n, n).unwrap();
        for i in 0..n {
            d[(i, i)] = e.values[i];
        }
        e.vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transpose())
            .unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let e = decompose_symmetric(&m).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = decompose_symmetric(&m).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for eigenvalue 3 is (1,1)/sqrt(2).
        let s = 1.0 / 2.0_f64.sqrt();
        assert!((e.vectors[(0, 0)] - s).abs() < 1e-10);
        assert!((e.vectors[(1, 0)] - s).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_matches_input() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.0],
            vec![-2.0, 0.0, 3.0],
        ])
        .unwrap();
        let e = decompose_symmetric(&m).unwrap();
        let r = reconstruct(&e);
        assert!(m.max_abs_diff(&r).unwrap() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0, 0.0],
            vec![2.0, 4.0, 0.5, 0.2],
            vec![1.0, 0.5, 3.0, 0.1],
            vec![0.0, 0.2, 0.1, 2.0],
        ])
        .unwrap();
        let e = decompose_symmetric(&m).unwrap();
        let gram = e.vectors.transpose().matmul(&e.vectors).unwrap();
        let id = Matrix::identity(4).unwrap();
        assert!(gram.max_abs_diff(&id).unwrap() < 1e-9);
    }

    #[test]
    fn trace_preserved() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.3, 0.1],
            vec![0.3, 2.0, -0.4],
            vec![0.1, -0.4, 1.5],
        ])
        .unwrap();
        let e = decompose_symmetric(&m).unwrap();
        let trace = 1.0 + 2.0 + 1.5;
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn values_sorted_descending() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.2, 0.0],
            vec![0.2, 9.0, 0.3],
            vec![0.0, 0.3, 4.0],
        ])
        .unwrap();
        let e = decompose_symmetric(&m).unwrap();
        assert!(e.values.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn rejects_non_square() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(decompose_symmetric(&m).is_err());
    }

    #[test]
    fn rejects_asymmetric() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(decompose_symmetric(&m).is_err());
    }

    #[test]
    fn rejects_nan() {
        let m = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![f64::NAN, 1.0]]).unwrap();
        assert!(decompose_symmetric(&m).is_err());
    }

    #[test]
    fn handles_20x20_correlation_like_matrix() {
        // Synthetic symmetric PSD matrix: A = B^T B for random-ish B.
        let n = 20;
        let mut b = Matrix::zeros(n, n).unwrap();
        let mut x = 0.5_f64;
        for i in 0..n {
            for j in 0..n {
                x = (x * 997.0 + 31.0) % 17.0; // deterministic pseudo-random
                b[(i, j)] = x / 17.0 - 0.5;
            }
        }
        let a = b.transpose().matmul(&b).unwrap();
        let e = decompose_symmetric(&a).unwrap();
        // PSD: all eigenvalues >= -tol.
        assert!(e.values.iter().all(|&v| v > -1e-9));
        let r = reconstruct(&e);
        assert!(a.max_abs_diff(&r).unwrap() < 1e-8);
    }
}
