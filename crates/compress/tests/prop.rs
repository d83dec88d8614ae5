//! Property tests: the codec is lossless on arbitrary input, its decoder
//! never panics on junk, and no stream decodes to more than 9x its size.

use proptest::prelude::*;
use shadow_compress::{compress, decompress};

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Arbitrary bytes.
        prop::collection::vec(any::<u8>(), 0..2048),
        // Runs and repetition, the codec's favourable cases.
        (any::<u8>(), 1usize..2048).prop_map(|(b, n)| vec![b; n]),
        (prop::collection::vec(any::<u8>(), 1..32), 1usize..64).prop_map(|(unit, reps)| {
            unit.iter()
                .copied()
                .cycle()
                .take(unit.len() * reps)
                .collect()
        }),
    ]
}

/// Well-formed streams: one literal, then literals and short-distance
/// copies packed eight items to a flag byte. These decode far more often
/// than raw junk; the all-longest-copies arm sits right at the 9x bound.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    let item = (any::<bool>(), 0u8..4, 0u8..16);
    let longest_copy = (Just(true), 0u8..4, Just(15u8));
    let items = prop_oneof![
        prop::collection::vec(item, 0..512),
        prop::collection::vec(longest_copy, 0..512),
    ];
    (any::<u8>(), items).prop_map(|(first, items)| {
        let mut items: Vec<Vec<u8>> = items
            .into_iter()
            .map(|(copy, byte, len)| if copy { vec![byte, len] } else { vec![byte] })
            .collect();
        items.insert(0, vec![first]);
        let mut out = Vec::new();
        for group in items.chunks(8) {
            let flags = group
                .iter()
                .enumerate()
                .filter(|(_, item)| item.len() == 2)
                .fold(0u8, |f, (bit, _)| f | 1 << bit);
            out.push(flags);
            group.iter().for_each(|item| out.extend_from_slice(item));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lzss_round_trips(input in arb_input()) {
        let packed = compress(&input);
        prop_assert_eq!(decompress(&packed).unwrap(), input);
    }

    #[test]
    fn decoders_never_panic_on_junk(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress(&junk);
    }

    #[test]
    fn lzss_decode_output_is_at_most_nine_times_its_input(
        input in prop_oneof![arb_stream(), prop::collection::vec(any::<u8>(), 0..512)],
    ) {
        if let Ok(out) = decompress(&input) {
            prop_assert!(out.len() <= 9 * input.len(), "{} from {}", out.len(), input.len());
        }
    }

    #[test]
    fn lzss_expansion_bound(input in prop::collection::vec(any::<u8>(), 0..4096)) {
        let packed = compress(&input);
        prop_assert!(packed.len() <= input.len() + input.len() / 8 + 2);
    }
}
