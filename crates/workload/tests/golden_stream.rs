//! Golden trace streams: the first 100k µops that four contrasting
//! quick-scale ref pairs drive into a sink, hashed and pinned.
//!
//! Every counter, table and figure downstream is a function of these
//! streams, so a change to how the generator draws (the order of RNG calls,
//! how a draw is compared against a threshold, a model's internal state)
//! must leave these digests alone unless it means to change every result.

use uarch_sim::config::SystemConfig;
use uarch_sim::exec::{UopSink, UopSource};
use uarch_sim::microop::BranchKind;
use workload_synth::cpu2017;
use workload_synth::generator::{TraceGenerator, TraceScale};
use workload_synth::profile::InputSize;

const OPS: usize = 100_000;

/// Hashes every sink call: a class tag, then the operand(s).
struct Digest(simstore::StableHasher);

impl UopSink for Digest {
    fn alu(&mut self) {
        self.0.write_u8(0);
    }
    fn load(&mut self, addr: u64) {
        self.0.write_u8(1);
        self.0.write_u64(addr);
    }
    fn store(&mut self, addr: u64) {
        self.0.write_u8(2);
        self.0.write_u64(addr);
    }
    fn branch(&mut self, pc: u64, kind: BranchKind, taken: bool) {
        let kind = match kind {
            BranchKind::Conditional => 0,
            BranchKind::DirectJump => 1,
            BranchKind::DirectNearCall => 2,
            BranchKind::IndirectJumpNonCallRet => 3,
            BranchKind::IndirectNearReturn => 4,
            _ => 5,
        };
        self.0.write_u8(3);
        self.0.write_u64(pc);
        self.0.write_u8(kind);
        self.0.write_u8(taken as u8);
    }
}

/// The digest of the first [`OPS`] µops `app`'s single ref pair drives.
fn stream_digest(app: &str) -> String {
    let config = SystemConfig::haswell_e5_2650l_v3();
    let profile = cpu2017::app(app).expect("roster app");
    let pairs = profile.pairs(InputSize::Ref);
    let mut gen = TraceGenerator::from_pair(&pairs[0], &config, &TraceScale::quick()).unwrap();
    assert!(
        gen.remaining() >= OPS as u64,
        "{app}: trace shorter than {OPS}"
    );
    let mut sink = Digest(simstore::StableHasher::new());
    assert_eq!(gen.drive(&mut sink, OPS), OPS);
    sink.0.finish().to_string()
}

#[test]
fn driven_streams_match_their_golden_digests() {
    // Memory-bound, branch-hostile, streaming and compute-bound: between
    // them every class, locality region and conditional site class is hit.
    let golden = [
        ("505.mcf_r", "cb273646a9d2e1ac55988095a02f4615"),
        ("541.leela_r", "d8733b4690818558fac4c05d20d1afe4"),
        ("519.lbm_r", "7e40d225a11e498a79612b7c3c9b7bde"),
        ("548.exchange2_r", "5f5b8da4bdde46994b3926e963c3306a"),
    ];
    let got: Vec<(&str, String)> = golden
        .iter()
        .map(|&(app, _)| (app, stream_digest(app)))
        .collect();
    let want: Vec<(&str, String)> = golden
        .iter()
        .map(|&(app, digest)| (app, digest.to_string()))
        .collect();
    assert_eq!(got, want, "a driven stream changed");
}
