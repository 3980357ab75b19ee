//! Property-based tests for the numeric substrate.

use proptest::prelude::*;

use awe_numeric::{
    eigenvalues, lu_solve, roots, solve_char_poly, solve_vandermonde, Complex, Lu, Matrix,
    Polynomial,
};

/// Strategy: a well-conditioned (diagonally dominant) n×n matrix.
fn dd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data);
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_residual_small(
        n in 1usize..8,
        seed in proptest::collection::vec(-10.0f64..10.0, 8),
    ) {
        let m = n;
        let a = {
            let mut a = Matrix::zeros(m, m);
            for i in 0..m {
                for j in 0..m {
                    a[(i, j)] = ((i * 31 + j * 17) % 13) as f64 / 13.0
                        + seed[(i + j) % seed.len()] / 20.0;
                }
                a[(i, i)] += m as f64 + 2.0;
            }
            a
        };
        let b: Vec<f64> = (0..m).map(|i| seed[i % seed.len()]).collect();
        let x = lu_solve(&a, &b).expect("diagonally dominant");
        let ax = a.mul_vec(&x);
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-9, "residual {p} vs {q}");
        }
    }

    #[test]
    fn lu_det_matches_transpose(a in dd_matrix(5)) {
        let d1 = Lu::factor(&a).expect("dd").det();
        let d2 = Lu::factor(&a.transpose()).expect("dd").det();
        prop_assert!((d1 - d2).abs() <= 1e-9 * d1.abs().max(1.0));
    }

    #[test]
    fn eigenvalue_sum_is_trace(a in dd_matrix(6)) {
        let eig = eigenvalues(&a).expect("converges");
        let sum: f64 = eig.iter().map(|z| z.re).sum();
        let imag: f64 = eig.iter().map(|z| z.im).sum();
        let tr = a.trace().expect("square");
        prop_assert!((sum - tr).abs() < 1e-6 * tr.abs().max(1.0), "{sum} vs {tr}");
        prop_assert!(imag.abs() < 1e-6, "conjugate pairs must cancel: {imag}");
    }

    #[test]
    fn eigenvalue_product_is_det(a in dd_matrix(5)) {
        let eig = eigenvalues(&a).expect("converges");
        let prod = eig.iter().fold(Complex::ONE, |acc, &z| acc * z);
        let det = Lu::factor(&a).expect("dd").det();
        prop_assert!(
            (prod.re - det).abs() < 1e-6 * det.abs().max(1.0),
            "{} vs {det}",
            prod.re
        );
    }

    #[test]
    fn roots_of_constructed_polynomial(
        rs in proptest::collection::vec(-50.0f64..-0.1, 1..6),
    ) {
        // Separate the roots to keep the problem well-posed.
        let mut roots_in: Vec<f64> = rs;
        roots_in.sort_by(|a, b| a.total_cmp(b));
        roots_in.dedup_by(|a, b| (*a - *b).abs() < 0.3);
        let p = Polynomial::from_roots(&roots_in);
        let found = roots(&p).expect("solvable");
        prop_assert_eq!(found.len(), roots_in.len());
        for &r in &roots_in {
            prop_assert!(
                found.iter().any(|z| (z.re - r).abs() < 1e-4 * r.abs().max(1.0)
                    && z.im.abs() < 1e-4 * r.abs().max(1.0)),
                "missing root {} in {:?}", r, found
            );
        }
    }

    #[test]
    fn polynomial_product_evaluates(
        a in proptest::collection::vec(-3.0f64..3.0, 1..5),
        b in proptest::collection::vec(-3.0f64..3.0, 1..5),
        x in -2.0f64..2.0,
    ) {
        let pa = Polynomial::new(a);
        let pb = Polynomial::new(b);
        let prod = &pa * &pb;
        let direct = pa.eval(x) * pb.eval(x);
        prop_assert!((prod.eval(x) - direct).abs() < 1e-9 * direct.abs().max(1.0));
    }

    #[test]
    fn vandermonde_solution_satisfies_system(
        nodes_re in proptest::collection::vec(-5.0f64..5.0, 2..6),
        rhs_re in proptest::collection::vec(-5.0f64..5.0, 6),
    ) {
        // Separate nodes.
        let mut ns: Vec<f64> = nodes_re;
        ns.sort_by(|a, b| a.total_cmp(b));
        ns.dedup_by(|a, b| (*a - *b).abs() < 0.2);
        prop_assume!(ns.len() >= 2);
        let nodes: Vec<Complex> = ns.iter().map(|&r| Complex::real(r)).collect();
        let rhs: Vec<Complex> = rhs_re[..nodes.len()]
            .iter()
            .map(|&r| Complex::real(r))
            .collect();
        let x = solve_vandermonde(&nodes, &rhs).expect("distinct nodes");
        for (j, want) in rhs.iter().enumerate() {
            let got: Complex = nodes
                .iter()
                .zip(&x)
                .map(|(n, xi)| n.powi(j as i32) * *xi)
                .sum();
            prop_assert!((got - *want).abs() < 1e-6 * want.abs().max(1.0));
        }
    }

    #[test]
    fn prony_recovers_exponential_sums(
        poles in proptest::collection::vec(-100.0f64..-0.5, 1..4),
        weights in proptest::collection::vec(0.2f64..3.0, 4),
    ) {
        // Well-separated stable poles with nonzero weights.
        let mut ps: Vec<f64> = poles;
        ps.sort_by(|a, b| a.total_cmp(b));
        ps.dedup_by(|a, b| (*a / *b) > 0.5); // keep ratios ≥ 2
        let q = ps.len();
        let ks = &weights[..q];
        let moments: Vec<f64> = (0..2 * q)
            .map(|r| {
                ks.iter()
                    .zip(&ps)
                    .map(|(k, p)| k * p.powi(-(r as i32)))
                    .sum()
            })
            .collect();
        let cp = solve_char_poly(&moments, q).expect("full rank");
        let rec = roots(&cp.poly).expect("roots");
        for &p in &ps {
            let target = 1.0 / p;
            prop_assert!(
                rec.iter().any(|z| (z.re - target).abs() < 1e-5 * target.abs()
                    && z.im.abs() < 1e-5 * target.abs()),
                "missing reciprocal pole {} in {:?}", target, rec
            );
        }
    }

    #[test]
    fn complex_field_identities(
        ar in -10.0f64..10.0, ai in -10.0f64..10.0,
        br in -10.0f64..10.0, bi in -10.0f64..10.0,
        cr in -10.0f64..10.0, ci in -10.0f64..10.0,
    ) {
        let (a, b, c) = (
            Complex::new(ar, ai),
            Complex::new(br, bi),
            Complex::new(cr, ci),
        );
        // Distributivity within rounding.
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!((lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0));
        // Conjugation is multiplicative.
        let cm = (a * b).conj();
        let mc = a.conj() * b.conj();
        prop_assert!((cm - mc).abs() <= 1e-12 * cm.abs().max(1.0));
        // |ab| = |a||b|.
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs()
            <= 1e-10 * (a.abs() * b.abs()).max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse and dense LU agree on random sparse systems, including ones
    /// that require pivoting (zero structural diagonals).
    #[test]
    fn sparse_lu_matches_dense(
        n in 2usize..30,
        seed in 0u64..10_000,
        zero_diag in proptest::bool::ANY,
    ) {
        use awe_numeric::{SparseLu, SparseMatrix};
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = 3.0 + next().abs();
            if i + 1 < n {
                d[(i, i + 1)] = next();
                d[(i + 1, i)] = next();
            }
            let far = (i * 5 + 2) % n;
            if far != i {
                d[(i, far)] += 0.3 * next();
            }
        }
        if zero_diag && n >= 3 {
            // Force a permutation-requiring structure: swap two rows so
            // a structural diagonal becomes zero but the matrix stays
            // nonsingular.
            d.swap_rows(0, n - 1);
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let dense = lu_solve(&d, &b).expect("dense solvable");
        let s = SparseMatrix::from_dense(&d);
        let sparse = SparseLu::factor(&s, None).expect("sparse factors")
            .solve(&b).expect("sparse solves");
        for (a, q) in dense.iter().zip(&sparse) {
            prop_assert!((a - q).abs() < 1e-8, "{a} vs {q}");
        }
        // Residual check against the original matrix too.
        let r = s.mul_vec(&sparse);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8);
        }
    }

    /// AMD produces a valid permutation and never breaks the solve.
    #[test]
    fn amd_permutation_is_valid(n in 2usize..40, seed in 0u64..5_000) {
        use awe_numeric::SparseMatrix;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 4.0));
            let j = ((i as u64).wrapping_mul(seed + 3) % n as u64) as usize;
            if j != i {
                triplets.push((i, j, -1.0));
                triplets.push((j, i, -1.0));
            }
        }
        let s = SparseMatrix::from_triplets(n, n, &triplets);
        let perm = s.amd_column_order().expect("square");
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // Symmetric permutation round-trips the matrix data.
        let p = s.permute_symmetric(&perm);
        prop_assert_eq!(p.nnz(), s.nnz());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse LU *with the AMD elimination order* matches dense LU on
    /// random SPD systems — the exact pairing the verify subsystem's
    /// sparse-lu oracle runs on MNA matrices, here on synthetic
    /// diagonally-dominant graph Laplacians where SPD-ness is by
    /// construction.
    #[test]
    fn sparse_lu_amd_matches_dense_on_spd(n in 2usize..25, seed in 0u64..5_000) {
        use awe_numeric::{SparseLu, SparseMatrix};
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 // in [0, 1)
        };
        // Weighted ring + random chords; diagonal = incident weight sum
        // plus a positive shift => symmetric strictly diagonally dominant
        // with positive diagonal, hence SPD.
        let mut off = vec![vec![0.0f64; n]; n];
        #[allow(clippy::needless_range_loop)] // symmetric writes to rows i and j
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                let w = 0.1 + next();
                off[i][j] += w;
                off[j][i] += w;
            }
            let far = ((i as u64).wrapping_mul(seed | 1) % n as u64) as usize;
            if far != i {
                let w = 0.1 + next();
                off[i][far] += w;
                off[far][i] += w;
            }
        }
        let mut triplets = Vec::new();
        for (i, row) in off.iter().enumerate() {
            let mut diag = 0.5 + next();
            for (j, &w) in row.iter().enumerate() {
                if w != 0.0 {
                    triplets.push((i, j, -w));
                    diag += w;
                }
            }
            triplets.push((i, i, diag));
        }
        let s = SparseMatrix::from_triplets(n, n, &triplets);
        let order = s.amd_column_order().expect("square matrix");

        let b: Vec<f64> = (0..n).map(|_| next() - 0.5).collect();
        let dense = lu_solve(&s.to_dense(), &b).expect("SPD is nonsingular");
        let sparse = SparseLu::factor(&s, Some(&order))
            .expect("SPD factors under any symmetric order")
            .solve(&b)
            .expect("solves");
        for (a, q) in dense.iter().zip(&sparse) {
            prop_assert!((a - q).abs() < 1e-8, "{a} vs {q}");
        }
        let r = s.mul_vec(&sparse);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8, "residual {ri} vs {bi}");
        }
    }

    /// Exactly singular systems (a duplicated row) are rejected by BOTH
    /// factorizations — neither silently returns garbage, and they agree
    /// on solvability just as the verify oracle demands of MNA matrices.
    #[test]
    fn singular_systems_rejected_by_both(n in 3usize..20, seed in 0u64..2_000) {
        use awe_numeric::{NumericError, SparseLu, SparseMatrix};
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = 2.0 + ((seed.wrapping_add(i as u64) % 7) as f64) * 0.25;
            if i + 1 < n {
                d[(i, i + 1)] = -1.0;
                d[(i + 1, i)] = -1.0;
            }
        }
        // Duplicate one row: exact rank deficiency, exact zero pivot.
        let dup = (seed as usize) % (n - 1);
        for j in 0..n {
            d[(dup + 1, j)] = d[(dup, j)];
        }
        let b = vec![1.0; n];
        let dense = lu_solve(&d, &b);
        prop_assert!(
            matches!(dense, Err(NumericError::Singular { .. })),
            "dense accepted a singular system: {dense:?}"
        );
        let s = SparseMatrix::from_dense(&d);
        let sparse = SparseLu::factor(&s, None).and_then(|f| f.solve(&b));
        prop_assert!(
            matches!(sparse, Err(NumericError::Singular { .. })),
            "sparse accepted a singular system: {sparse:?}"
        );
    }

    /// Near-singular (ill-conditioned) systems are *detectable*: the
    /// factorization may succeed, but the Hager condition estimate and
    /// the minimum pivot both flag the system so callers can reject it
    /// (the verify harness caps trustworthy models at cond 1e14).
    #[test]
    fn ill_conditioned_systems_are_flagged(n in 3usize..20, eps_exp in 12i32..15) {
        let eps = 10f64.powi(-eps_exp);
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = 2.0;
            if i + 1 < n {
                d[(i, i + 1)] = -1.0;
                d[(i + 1, i)] = -1.0;
            }
        }
        // Two nearly identical rows: rank deficiency up to eps.
        for j in 0..n {
            let v = d[(0, j)];
            d[(1, j)] = v * (1.0 + if j == 0 { eps } else { 0.0 });
        }
        let norm_one = (0..n)
            .map(|j| (0..n).map(|i| d[(i, j)].abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        let f = Lu::factor(&d).expect("near-singular still factors");
        let cond = f.condition_estimate(norm_one);
        prop_assert!(
            cond > 1e10,
            "condition estimate {cond:.3e} misses eps={eps:.0e} rank gap"
        );
        prop_assert!(f.min_pivot() < 1e-9 * norm_one, "min pivot {:.3e}", f.min_pivot());
    }
}
