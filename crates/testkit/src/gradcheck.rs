//! Finite-difference gradient verification.
//!
//! [`check_grads`] compares an analytic gradient (e.g. from the autograd
//! tape) against central finite differences of the loss, parameter by
//! parameter. It speaks flat `&[f32]` vectors: the caller supplies a
//! closure evaluating the loss at an arbitrary parameter vector.
//!
//! [`fd_check_all_params`] bridges it to `ssdrec-tensor`'s
//! [`ParamStore`]/[`Graph`] world. A test hands it a closure that rebuilds
//! the forward graph and returns a scalar loss; every tensor registered in
//! the store — including inputs smuggled in as parameters — is then
//! perturbed coordinate by coordinate and compared against the tape's
//! gradients.

use ssdrec_tensor::{Binding, Graph, ParamStore, Var};

/// Outcome of a successful gradient check.
#[derive(Clone, Debug)]
pub struct GradReport {
    /// Number of scalar parameters checked.
    pub checked: usize,
    /// Largest absolute numeric-vs-analytic difference seen.
    pub max_abs_err: f32,
    /// Largest relative error seen (normalised by `1 + max(|num|, |ana|)`).
    pub max_rel_err: f32,
    /// Index of the worst parameter.
    pub worst_index: usize,
}

/// Verify `analytic` against central finite differences of `f` around
/// `params`.
///
/// For every index `i`, the numeric derivative
/// `(f(params + eps·eᵢ) − f(params − eps·eᵢ)) / (2·eps)` must satisfy
/// `|num − ana| ≤ tol · (1 + max(|num|, |ana|))` — absolute tolerance for
/// small gradients, relative for large ones.
///
/// Returns a [`GradReport`] on success; on the first violated index returns
/// an error describing both values. `f` must be deterministic (freeze any
/// stochastic state such as dropout masks before checking).
pub fn check_grads<F>(
    mut f: F,
    params: &[f32],
    analytic: &[f32],
    eps: f32,
    tol: f32,
) -> Result<GradReport, String>
where
    F: FnMut(&[f32]) -> f32,
{
    assert!(eps > 0.0 && tol > 0.0, "eps and tol must be positive");
    assert_eq!(
        params.len(),
        analytic.len(),
        "parameter/gradient length mismatch: {} vs {}",
        params.len(),
        analytic.len()
    );
    let mut work = params.to_vec();
    let mut report = GradReport {
        checked: params.len(),
        max_abs_err: 0.0,
        max_rel_err: 0.0,
        worst_index: 0,
    };
    for i in 0..params.len() {
        work[i] = params[i] + eps;
        let lp = f(&work);
        work[i] = params[i] - eps;
        let lm = f(&work);
        work[i] = params[i];
        let num = (lp - lm) / (2.0 * eps);
        let ana = analytic[i];
        if !num.is_finite() || !ana.is_finite() {
            return Err(format!(
                "non-finite gradient at index {i}: numeric {num}, analytic {ana}"
            ));
        }
        let abs = (num - ana).abs();
        let rel = abs / (1.0 + num.abs().max(ana.abs()));
        if rel > tol {
            return Err(format!(
                "gradient mismatch at index {i}: numeric {num} vs analytic {ana} \
                 (abs err {abs:.3e}, rel err {rel:.3e} > tol {tol:.1e})"
            ));
        }
        if rel > report.max_rel_err {
            report.max_rel_err = rel;
            report.worst_index = i;
        }
        report.max_abs_err = report.max_abs_err.max(abs);
    }
    Ok(report)
}

/// Verify the autograd gradients of `build`'s scalar loss with respect to
/// **every** parameter tensor in `store`, using central finite differences.
///
/// `build` must be deterministic (reseed any internal RNG on each call) and
/// must return a scalar (1-element) loss variable. Parameters the loss does
/// not depend on are checked against a zero gradient. Panics with the
/// offending parameter's name on the first mismatch; returns the worst
/// relative error seen across all tensors otherwise.
pub fn fd_check_all_params(
    store: &mut ParamStore,
    eps: f32,
    tol: f32,
    build: impl Fn(&mut Graph, &Binding) -> Var,
) -> f32 {
    // Analytic pass at the current parameter values.
    let mut g = Graph::new();
    let bind = store.bind_all(&mut g);
    let loss = build(&mut g, &bind);
    assert_eq!(g.value(loss).data().len(), 1, "loss must be scalar");
    let grads = g.backward(loss);

    let infos: Vec<(String, Vec<f32>, Vec<f32>)> = (0..store.num_tensors())
        .map(|i| {
            let p = ParamStore::param_ref_by_index(i);
            let orig = store.get(p).data().to_vec();
            let analytic = grads
                .get(bind.var(p))
                .map(|t| t.data().to_vec())
                .unwrap_or_else(|| vec![0.0; orig.len()]);
            (store.name(p).to_string(), orig, analytic)
        })
        .collect();
    drop(g);

    let mut worst = 0.0f32;
    for (i, (name, orig, analytic)) in infos.iter().enumerate() {
        let p = ParamStore::param_ref_by_index(i);
        let result = check_grads(
            |vals: &[f32]| {
                store.get_mut(p).data_mut().copy_from_slice(vals);
                let mut g = Graph::new();
                let bind = store.bind_all(&mut g);
                let loss = build(&mut g, &bind);
                g.value(loss).data()[0]
            },
            orig,
            analytic,
            eps,
            tol,
        );
        store.get_mut(p).data_mut().copy_from_slice(orig);
        match result {
            Ok(report) => worst = worst.max(report.max_rel_err),
            Err(e) => panic!("gradient check failed for `{name}`: {e}"),
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = Σ xᵢ², ∇f = 2x.
    #[test]
    fn accepts_correct_quadratic_gradient() {
        let params = [0.5f32, -1.25, 2.0, 0.0];
        let analytic: Vec<f32> = params.iter().map(|x| 2.0 * x).collect();
        let report = check_grads(
            |xs| xs.iter().map(|x| x * x).sum(),
            &params,
            &analytic,
            1e-3,
            1e-3,
        )
        .expect("correct gradient must pass");
        assert_eq!(report.checked, 4);
        assert!(report.max_rel_err <= 1e-3);
    }

    #[test]
    fn rejects_wrong_gradient() {
        let params = [1.0f32, 2.0];
        let wrong = [2.0f32, 3.0]; // true grad is [2, 4]
        let err = check_grads(
            |xs| xs.iter().map(|x| x * x).sum(),
            &params,
            &wrong,
            1e-3,
            1e-3,
        )
        .expect_err("wrong gradient must fail");
        assert!(err.contains("index 1"), "{err}");
    }

    /// Non-trivial coupling: f(x) = sin(x₀)·x₁ + exp(x₀·x₁).
    #[test]
    fn accepts_coupled_nonlinear_gradient() {
        let p = [0.3f32, -0.7];
        let e = (p[0] * p[1]).exp();
        let analytic = [p[0].cos() * p[1] + p[1] * e, p[0].sin() + p[0] * e];
        check_grads(
            |x| x[0].sin() * x[1] + (x[0] * x[1]).exp(),
            &p,
            &analytic,
            1e-3,
            1e-3,
        )
        .expect("analytic gradient is exact");
    }

    #[test]
    fn rejects_non_finite() {
        let err = check_grads(|x| 1.0 / x[0], &[0.0f32], &[0.0], 1e-3, 1e-3)
            .expect_err("division through zero must be flagged");
        assert!(
            err.contains("non-finite") || err.contains("mismatch"),
            "{err}"
        );
    }
}
