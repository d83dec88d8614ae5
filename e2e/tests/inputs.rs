//! Pins the generated inputs: a digest of each of the first five
//! versions of every workload's data file at the default seed.
//!
//! The text workloads build on `shadow-workload`'s generator and edit
//! model. If a change there (or here) alters the inputs, this test fails,
//! rather than the change showing up as a difference in speed.

use shadow_e2e::workload::Inputs;
use shadow_e2e::{Workload, DEFAULT_SEED};

/// 64-bit FNV-1a, kept here so the pin does not depend on the service's
/// own digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn first_five(workload: Workload) -> Vec<u64> {
    let mut inputs = Inputs::new(workload, DEFAULT_SEED);
    let mut digests = vec![fnv1a(inputs.current())];
    for _ in 1..5 {
        inputs.advance();
        digests.push(fnv1a(inputs.current()));
    }
    digests
}

#[test]
fn first_five_versions_are_pinned() {
    let pinned: [(Workload, [u64; 5]); 4] = [
        (
            Workload::TextEdit,
            [
                0x2f53_0b3d_5b9c_e40c,
                0xfe5b_6daa_4c13_4096,
                0x9925_811b_2d6e_f982,
                0x4f9a_651a_f393_6d9e,
                0xb9a5_dd1a_b3f6_3f97,
            ],
        ),
        (
            Workload::BinarySplice,
            [
                0xf206_5bee_2fbd_e479,
                0x4493_c263_bf2a_86b5,
                0x86c2_3d69_0cbb_2929,
                0x0421_b8cd_d9a0_bd1a,
                0x91b5_efbf_dfcf_f0b2,
            ],
        ),
        (
            Workload::TcpIdlePeer,
            [
                0x8a91_cb50_cab8_281c,
                0xee47_45bf_8388_7cdd,
                0xe2ec_b13a_d3c3_49c8,
                0x71f4_9325_f61e_6f80,
                0xc53c_dd09_eecf_890d,
            ],
        ),
        (
            Workload::DurableReport,
            [
                0x3110_ace1_936e_f6e6,
                0xb899_ad8b_ae89_f62e,
                0x0f96_e737_048a_7b62,
                0x1412_1681_b554_7cb4,
                0x4039_8dca_9462_3fb0,
            ],
        ),
    ];
    for (workload, digests) in pinned {
        assert_eq!(first_five(workload), digests, "{}", workload.name());
    }
}

#[test]
fn versions_replay_from_a_clone() {
    for workload in Workload::ALL {
        let mut inputs = Inputs::new(workload, DEFAULT_SEED);
        inputs.advance();
        let mut replay = inputs.clone();
        inputs.advance();
        replay.advance();
        assert_eq!(inputs.current(), replay.current(), "{}", workload.name());
    }
}
