//! Parallel trace generation.
//!
//! Every experiment needs at least a training and a testing trace per
//! benchmark, and perturbation studies need whole families of traces that
//! differ only in their [`InputSpec`] seed. Each [`Executor`] owns its RNG
//! (seeded from the input spec), so generation for distinct specs is
//! independent by construction — these helpers fan it out over a
//! [`tempo_par::Pool`] and return traces in request order, identical to
//! the serial result for any worker count.

use tempo_par::{JobPanic, Pool};
use tempo_trace::Trace;

use crate::{BenchmarkModel, Executor, InputSpec};

/// Generates one trace per `(input, len)` request, in parallel, in
/// request order.
///
/// # Errors
///
/// Returns the first worker panic as a [`JobPanic`] carrying the failing
/// request's index (generation itself does not panic for valid models).
pub fn traces(
    model: &BenchmarkModel,
    requests: &[(InputSpec, usize)],
    pool: &Pool,
) -> Result<Vec<Trace>, JobPanic> {
    let jobs: Vec<_> = requests
        .iter()
        .map(|&(input, len)| move || Executor::new(model, input).generate(len))
        .collect();
    pool.run(jobs).into_iter().collect()
}

/// Generates the model's training and testing traces concurrently — the
/// setup step every experiment cell starts with.
///
/// # Errors
///
/// Returns the first worker panic as a [`JobPanic`] (index 0 = train,
/// 1 = test).
pub fn train_test_traces(
    model: &BenchmarkModel,
    len: usize,
    pool: &Pool,
) -> Result<(Trace, Trace), JobPanic> {
    let mut out = traces(
        model,
        &[(model.training_input(), len), (model.testing_input(), len)],
        pool,
    )?
    .into_iter();
    let train = out.next().expect("two traces requested");
    let test = out.next().expect("two traces requested");
    Ok((train, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn parallel_generation_matches_serial() {
        let model = suite::m88ksim();
        let requests = [
            (model.training_input(), 3_000),
            (model.testing_input(), 3_000),
            (InputSpec::new(99), 1_000),
        ];
        let serial: Vec<Trace> = requests
            .iter()
            .map(|&(input, len)| Executor::new(&model, input).generate(len))
            .collect();
        for workers in [1, 2, 4] {
            let par = traces(&model, &requests, &Pool::new(workers)).unwrap();
            assert_eq!(par, serial, "at {workers} workers");
        }
    }

    #[test]
    fn train_test_pair_matches_the_model_methods() {
        let model = suite::go();
        let (train, test) = train_test_traces(&model, 2_000, &Pool::new(2)).unwrap();
        assert_eq!(train, model.training_trace(2_000));
        assert_eq!(test, model.testing_trace(2_000));
    }
}
