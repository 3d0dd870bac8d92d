//! Property tests of the `SearchSpec` wire format — the JSON that
//! `tables --spec`, the engine and `POST /jobs` all parse:
//!
//! * every `AlgorithmSpec` variant, with random tunables and budgets,
//!   round-trips through `serde_json` unchanged;
//! * arbitrary bytes and JSON-token soup never panic the parser: bytes
//!   are an `Err`, and whatever soup does parse re-serialises stably;
//! * a `deadline_ms` past what a `Duration` holds is an `Err`, not a
//!   panic;
//! * nesting past the parser's 128-level limit is an `Err` at any
//!   depth and in any position, never a stack overflow.

use pnmcs::search::{
    AlgorithmSpec, AnnealingConfig, Budget, NestedConfig, NrpaConfig, SearchSpec, UctConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// One spec per `AlgorithmSpec` variant, shaped by the drawn numbers.
fn every_variant(small: u32, width: usize, iterations: usize) -> Vec<AlgorithmSpec> {
    let level = small % 4;
    let bit = |k: u32| (small >> k) & 1 == 1;
    // Multiples of 1/1024 print and parse back exactly.
    let real = |k: usize| (k % 4096) as f64 / 1024.0;
    vec![
        AlgorithmSpec::Nested {
            level,
            config: NestedConfig {
                playout_cap: bit(2).then_some(iterations),
                ..if bit(3) {
                    NestedConfig::greedy()
                } else {
                    NestedConfig::paper()
                }
            },
        },
        AlgorithmSpec::Nrpa {
            level,
            config: NrpaConfig {
                iterations,
                alpha: real(iterations),
            },
        },
        AlgorithmSpec::Uct {
            config: UctConfig {
                iterations,
                exploration: real(width),
                max_bias: real(iterations + width),
            },
            tree_reuse: bit(4),
        },
        AlgorithmSpec::FlatMc {
            playouts: iterations,
        },
        AlgorithmSpec::IteratedSampling { samples: width },
        AlgorithmSpec::Beam {
            width,
            samples: iterations,
        },
        AlgorithmSpec::Sample,
        AlgorithmSpec::LeafParallel {
            level,
            batch: iterations,
            threads: width,
            playout_cap: bit(5).then_some(iterations),
            first_move: bit(6),
        },
        AlgorithmSpec::RootParallel {
            level: level + 2,
            threads: width,
            playout_cap: bit(7).then_some(width),
            first_move: bit(8),
        },
        AlgorithmSpec::TreeParallel {
            config: UctConfig {
                iterations,
                ..UctConfig::default()
            },
            threads: width,
            tree_reuse: bit(9),
        },
        AlgorithmSpec::SimulatedAnnealing {
            config: AnnealingConfig {
                iterations,
                t_initial: real(iterations) + 1.0,
                t_final: real(width),
            },
        },
    ]
}

/// JSON tokens that collide with the spec grammar: delimiters, the
/// field names and kinds it looks for, the removed tree-parallel knobs,
/// and numbers and escapes at the edges of what the parser accepts.
fn token() -> BoxedStrategy<String> {
    prop_oneof![
        Just("{".to_string()),
        Just("}".to_string()),
        Just("[".to_string()),
        Just("]".to_string()),
        Just(":".to_string()),
        Just(",".to_string()),
        Just("\"algorithm\"".to_string()),
        Just("\"kind\"".to_string()),
        Just("\"tree_parallel\"".to_string()),
        Just("\"nested\"".to_string()),
        Just("\"sample\"".to_string()),
        Just("\"threads\"".to_string()),
        Just("\"level\"".to_string()),
        Just("\"lock\"".to_string()),
        Just("\"Global\"".to_string()),
        Just("\"leaf_batch\"".to_string()),
        Just("\"budget\"".to_string()),
        Just("\"deadline_ms\"".to_string()),
        Just("\"seed\"".to_string()),
        Just("true".to_string()),
        Just("null".to_string()),
        Just("-1".to_string()),
        Just("1e999".to_string()),
        Just("18446744073709551616".to_string()),
        Just("0.5".to_string()),
        Just("\"\\u12".to_string()),
        Just("\"\\ud800\"".to_string()),
        Just("\"".to_string()),
        Just(" ".to_string()),
        (0u32..500u32).prop_map(|n| n.to_string()),
    ]
    .boxed()
}

fn nest(depth: usize, open: &str, close: &str, core: &str) -> String {
    format!("{}{core}{}", open.repeat(depth), close.repeat(depth))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every variant, with random tunables, seed and budget, parses back
    /// to the spec that was serialised.
    #[test]
    fn every_search_spec_variant_round_trips_through_json(
        seed in 0u64..u64::MAX,
        small in 0u32..1024,
        width in 1usize..64,
        iterations in 1usize..100_000,
        budget in (0u64..100_000, 0u64..4),
    ) {
        let (amount, shape) = budget;
        let budget = match shape {
            0 => Budget::none(),
            1 => Budget::none().with_deadline(Duration::from_millis(amount)),
            2 => Budget::none().with_max_playouts(amount),
            _ => Budget::none().with_max_nodes(amount).with_max_playouts(amount / 2),
        };
        for algorithm in every_variant(small, width, iterations) {
            let spec = SearchSpec {
                algorithm,
                budget: budget.clone(),
                seed,
            };
            let json = serde_json::to_string(&spec).expect("specs serialise");
            let back: SearchSpec = serde_json::from_str(&json)
                .map_err(|e| TestCaseError::fail(format!("{json}: {e}")))?;
            prop_assert_eq!(&back, &spec, "round-trip of {}", json);
            prop_assert_eq!(back.algorithm.tag(), spec.algorithm.tag());
        }
    }

    /// Random bytes are never a spec, and never a panic.
    #[test]
    fn arbitrary_bytes_are_an_err_not_a_panic(
        bytes in vec((0u16..256).prop_map(|b| b as u8), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(serde_json::from_str::<SearchSpec>(&text).is_err(), "{:?}", text);
    }

    /// Token soup never panics the parser; whatever does parse as a spec
    /// re-serialises to a spec that parses to the same value.
    #[test]
    fn json_token_soup_never_panics_and_parses_stably(
        tokens in vec(token(), 0..64),
    ) {
        let text = tokens.concat();
        if let Ok(spec) = serde_json::from_str::<SearchSpec>(&text) {
            let json = serde_json::to_string(&spec).expect("specs serialise");
            let again: SearchSpec = serde_json::from_str(&json)
                .map_err(|e| TestCaseError::fail(format!("{json}: {e}")))?;
            prop_assert_eq!(again, spec);
        }
    }

    /// A deadline of any magnitude parses or is refused; one past what
    /// a `Duration` holds (about 1.8e22 ms) is an error, not a panic.
    #[test]
    fn huge_deadlines_are_an_err_not_a_panic(exponent in 0u32..400) {
        let doc = format!(
            r#"{{"algorithm":{{"kind":"sample"}},"budget":{{"deadline_ms":1e{exponent}}}}}"#
        );
        let parsed = serde_json::from_str::<SearchSpec>(&doc);
        if exponent <= 21 {
            prop_assert!(parsed.is_ok(), "{}: {:?}", doc, parsed.err());
        } else if exponent >= 23 {
            prop_assert!(parsed.is_err(), "{} parsed", doc);
        }
    }

    /// Nesting past 128 levels is an error wherever it sits: as the
    /// whole document, as the algorithm, or as a field value the spec
    /// would otherwise read.
    #[test]
    fn nesting_past_the_limit_is_an_err_at_any_depth(
        depth in 129usize..20_000,
        shape in 0u8..3,
    ) {
        let deep = match shape {
            0 => nest(depth, "[", "]", ""),
            1 => nest(depth, "{\"a\":", "}", "1"),
            _ => nest(depth, "[{\"b\":", "}]", "null"),
        };
        for doc in [
            deep.clone(),
            format!(r#"{{"algorithm":{deep},"seed":1}}"#),
            format!(r#"{{"algorithm":{{"kind":"nested","level":1,"config":{deep}}}}}"#),
            format!(r#"{{"algorithm":{{"kind":"sample"}},"budget":{deep}}}"#),
        ] {
            prop_assert!(
                serde_json::from_str::<SearchSpec>(&doc).is_err(),
                "depth {} shape {} parsed", depth, shape
            );
        }
    }
}
