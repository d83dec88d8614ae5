//! Robustness: the batch executor must never panic, whatever job command
//! file a user submits — including non-UTF-8 garbage, absurd counts, and
//! deeply weird argument shapes.

use proptest::prelude::*;
use shadow_server::exec::run_job;
use std::collections::HashMap;

fn resolver(files: HashMap<String, Vec<u8>>) -> impl Fn(&str) -> Option<Vec<u8>> {
    move |name| files.get(name).cloned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn executor_never_panics_on_arbitrary_bytes(
        job in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let outcome = run_job(&job, &|_| None::<&[u8]>);
        // Exit code is always 0 or 1.
        prop_assert!(outcome.exit_code == 0 || outcome.exit_code == 1);
    }

    #[test]
    fn executor_never_panics_on_word_salad(
        lines in prop::collection::vec(
            prop::collection::vec("[a-z0-9/.]{1,8}", 0..5).prop_map(|w| w.join(" ")),
            0..12
        ),
        files in prop::collection::hash_map(
            "[a-z/]{1,6}",
            prop::collection::vec(any::<u8>(), 0..128),
            0..4
        ),
    ) {
        let job = lines.join("\n") + "\n";
        let resolve = resolver(files);
        let outcome = run_job(job.as_bytes(), &resolve);
        prop_assert!(outcome.exit_code == 0 || outcome.exit_code == 1);
        // Accounting: cpu_bytes at least covers the output produced.
        prop_assert!(outcome.cpu_bytes >= outcome.output.len() as u64);
    }

    #[test]
    fn executor_output_is_deterministic(
        job in prop::collection::vec(any::<u8>(), 0..256),
        content in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut files = HashMap::new();
        files.insert("/f".to_string(), content);
        let resolve = resolver(files);
        let a = run_job(&job, &resolve);
        let b = run_job(&job, &resolve);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn huge_counts_are_rejected_or_bounded(n in prop::num::u64::ANY) {
        // `gen` with absurd counts must not OOM: parse failure or the work
        // is genuinely requested (we cap the test to small n for that).
        let job = format!("gen {n} x\n");
        if n < 10_000 {
            let outcome = run_job(job.as_bytes(), &|_| None::<&[u8]>);
            prop_assert_eq!(outcome.exit_code, 0);
        } else {
            // Don't actually materialize huge outputs in the test; just
            // check the malformed variants.
            let job = format!("gen {n}x x\n");
            let outcome = run_job(job.as_bytes(), &|_| None::<&[u8]>);
            prop_assert_eq!(outcome.exit_code, 1);
        }
    }
}
