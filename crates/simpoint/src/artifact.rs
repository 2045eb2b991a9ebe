//! The persisted simpoint artifact: a schema-versioned binary record, one
//! per (pair, system, simpoint-config) triple, written through the
//! content-addressed store under `results/simpoints/`.
//!
//! The record is self-contained: besides the clustering itself (medoids,
//! labels, weights) it carries both the reference and the reconstructed
//! counter files in [`Event::ALL`] order, so `simgate simpoint` and the
//! S-rule lints can recompute every speedup and error figure without
//! re-simulating anything.

use simstore::{CodecError, Decoder, Encoder};
use uarch_sim::counters::{Event, PerfSession};

use crate::analysis::{rel_error, SimpointAnalysis};

/// Version stamp of the encoded record layout.
pub const SIMPOINT_SCHEMA_VERSION: u32 = 1;

/// Leading magic of every encoded simpoint record.
const MAGIC: &[u8; 4] = b"SPNT";

/// One analyzed pair's simpoint result, as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpointRecord {
    /// Pair identity, e.g. `505.mcf_r/ref/in1`.
    pub id: String,
    /// Counted micro-ops per profiling interval.
    pub interval_ops: u64,
    /// Micro-ops in the full run.
    pub total_ops: u64,
    /// Micro-ops a sparse replay simulates in detail (medoid intervals).
    pub simulated_ops: u64,
    /// Micro-ops a sparse replay functionally warms between simulation
    /// points.
    pub warmed_ops: u64,
    /// Mean silhouette of the chosen clustering (0.0 when k = 1).
    pub silhouette: f64,
    /// Interval indices chosen as simulation points, ascending.
    pub medoids: Vec<u32>,
    /// Per-interval cluster assignment (indices into `medoids`).
    pub labels: Vec<u32>,
    /// Fraction of intervals each cluster owns.
    pub weights: Vec<f64>,
    /// Ground-truth counters of the full run, in [`Event::ALL`] order.
    pub reference: [u64; Event::ALL.len()],
    /// Reconstructed counters, in [`Event::ALL`] order.
    pub estimate: [u64; Event::ALL.len()],
}

impl SimpointRecord {
    /// Packages an analysis result under a pair id.
    pub fn from_analysis(id: &str, analysis: &SimpointAnalysis) -> Self {
        let mut reference = [0u64; Event::ALL.len()];
        let mut estimate = [0u64; Event::ALL.len()];
        for (slot, ev) in Event::ALL.iter().enumerate() {
            reference[slot] = analysis.reference.count(*ev);
            estimate[slot] = analysis.estimate.count(*ev);
        }
        SimpointRecord {
            id: id.to_string(),
            interval_ops: analysis.interval_ops,
            total_ops: analysis.total_ops,
            simulated_ops: analysis.simulated_ops,
            warmed_ops: analysis.warmed_ops,
            silhouette: analysis.silhouette,
            medoids: analysis.medoids.iter().map(|&m| m as u32).collect(),
            labels: analysis.labels.iter().map(|&l| l as u32).collect(),
            weights: analysis.weights.clone(),
            reference,
            estimate,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Number of profiling intervals.
    pub fn n_intervals(&self) -> usize {
        self.labels.len()
    }

    /// The stored reference counters as a session.
    pub fn reference_session(&self) -> PerfSession {
        session_from(&self.reference)
    }

    /// The stored reconstructed counters as a session.
    pub fn estimate_session(&self) -> PerfSession {
        session_from(&self.estimate)
    }

    /// Reduction in simulated micro-ops.
    pub fn speedup(&self) -> f64 {
        self.total_ops as f64 / self.simulated_ops.max(1) as f64
    }

    /// Relative error of the reconstructed IPC.
    pub fn ipc_error(&self) -> f64 {
        rel_error(
            self.reference_session().ipc(),
            self.estimate_session().ipc(),
        )
    }

    /// Relative error of a reconstructed MPKI rate.
    pub fn mpki_error(&self, miss_event: Event) -> f64 {
        let reference = self.reference_session();
        let estimate = self.estimate_session();
        rel_error(mpki(&reference, miss_event), mpki(&estimate, miss_event))
    }

    /// The worst of the IPC error and the three per-level MPKI errors —
    /// the figure `simgate simpoint --max-error` gates on.
    pub fn max_headline_error(&self) -> f64 {
        self.ipc_error()
            .max(self.mpki_error(Event::MemLoadUopsRetiredL1Miss))
            .max(self.mpki_error(Event::MemLoadUopsRetiredL2Miss))
            .max(self.mpki_error(Event::MemLoadUopsRetiredL3Miss))
    }

    /// Serializes the record (magic, schema version, then fields in
    /// declaration order; vectors are length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_bytes(MAGIC);
        e.put_u32(SIMPOINT_SCHEMA_VERSION);
        e.put_str(&self.id);
        e.put_u64(self.interval_ops);
        e.put_u64(self.total_ops);
        e.put_u64(self.simulated_ops);
        e.put_u64(self.warmed_ops);
        e.put_f64(self.silhouette);
        e.put_u32(self.medoids.len() as u32);
        for &m in &self.medoids {
            e.put_u32(m);
        }
        e.put_u32(self.labels.len() as u32);
        for &l in &self.labels {
            e.put_u32(l);
        }
        e.put_u32(self.weights.len() as u32);
        for &w in &self.weights {
            e.put_f64(w);
        }
        for &c in &self.reference {
            e.put_u64(c);
        }
        for &c in &self.estimate {
            e.put_u64(c);
        }
        e.into_bytes()
    }

    /// Deserializes a record, failing loudly on foreign or damaged bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`] / [`CodecError::UnsupportedVersion`] for
    /// foreign payloads, and the usual truncation / trailing-byte errors
    /// for damaged ones.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        if d.take_bytes(MAGIC.len())? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = d.take_u32()?;
        if version != SIMPOINT_SCHEMA_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                expected: SIMPOINT_SCHEMA_VERSION,
            });
        }
        let id = d.take_str()?;
        let interval_ops = d.take_u64()?;
        let total_ops = d.take_u64()?;
        let simulated_ops = d.take_u64()?;
        let warmed_ops = d.take_u64()?;
        let silhouette = d.take_f64()?;
        let k = d.take_u32()? as usize;
        let mut medoids = Vec::new();
        for _ in 0..k {
            medoids.push(d.take_u32()?);
        }
        let n = d.take_u32()? as usize;
        let mut labels = Vec::new();
        for _ in 0..n {
            labels.push(d.take_u32()?);
        }
        let w = d.take_u32()? as usize;
        let mut weights = Vec::new();
        for _ in 0..w {
            weights.push(d.take_f64()?);
        }
        let mut reference = [0u64; Event::ALL.len()];
        for slot in &mut reference {
            *slot = d.take_u64()?;
        }
        let mut estimate = [0u64; Event::ALL.len()];
        for slot in &mut estimate {
            *slot = d.take_u64()?;
        }
        d.finish()?;
        Ok(SimpointRecord {
            id,
            interval_ops,
            total_ops,
            simulated_ops,
            warmed_ops,
            silhouette,
            medoids,
            labels,
            weights,
            reference,
            estimate,
        })
    }
}

fn session_from(counts: &[u64; Event::ALL.len()]) -> PerfSession {
    let mut s = PerfSession::new();
    for (slot, ev) in Event::ALL.iter().enumerate() {
        s.set(*ev, counts[slot]);
    }
    s
}

fn mpki(session: &PerfSession, miss_event: Event) -> f64 {
    let inst = session.count(Event::InstRetiredAny);
    if inst == 0 {
        0.0
    } else {
        session.count(miss_event) as f64 * 1000.0 / inst as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record() -> SimpointRecord {
        let mut reference = [0u64; Event::ALL.len()];
        let mut estimate = [0u64; Event::ALL.len()];
        reference[0] = 40_000; // inst_retired.any == total_ops
        reference[1] = 20_000;
        estimate[0] = 40_000;
        estimate[1] = 20_400;
        SimpointRecord {
            id: "505.mcf_r/ref/in1".to_string(),
            interval_ops: 10_000,
            total_ops: 40_000,
            simulated_ops: 20_000,
            warmed_ops: 20_000,
            silhouette: 0.62,
            medoids: vec![1, 3],
            labels: vec![0, 0, 1, 1],
            weights: vec![0.5, 0.5],
            reference,
            estimate,
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let record = sample_record();
        let decoded = SimpointRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn foreign_and_damaged_payloads_fail_loudly() {
        assert_eq!(
            SimpointRecord::decode(b"not a simpoint record"),
            Err(CodecError::BadMagic)
        );
        let mut future = sample_record().encode();
        future[4] = 0xFF; // bump the little-endian version field
        assert!(matches!(
            SimpointRecord::decode(&future),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        let bytes = sample_record().encode();
        assert!(SimpointRecord::decode(&bytes[..bytes.len() - 3]).is_err());
        let mut trailing = sample_record().encode();
        trailing.push(0);
        assert_eq!(
            SimpointRecord::decode(&trailing),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn derived_metrics_match_counters() {
        let record = sample_record();
        assert!((record.speedup() - 2.0).abs() < 1e-12);
        // Estimate cycles 2% high → IPC 2% low (1/1.02 relative).
        let expected = rel_error(2.0, 40_000.0 / 20_400.0);
        assert!((record.ipc_error() - expected).abs() < 1e-12);
        assert_eq!(record.k(), 2);
        assert_eq!(record.n_intervals(), 4);
    }
}
