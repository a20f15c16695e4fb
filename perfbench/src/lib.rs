//! End-to-end sim-WGS benchmark for GPF: generate the inputs from a seed,
//! run the Figure-3 pipeline, check the calls against the simulator's
//! planted truth, and report end-to-end and per-layer metrics.
//!
//! Everything is measured from outside the program through its public
//! APIs; see `README.md` in this directory for the workloads and metrics.

pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod run;

use gpf_compress::serializer::serialize_batch;
use gpf_compress::SerializerKind;
use gpf_formats::vcf::VcfRecord;
use gpf_workloads::variants::PlantedVariant;
use std::collections::HashSet;

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Digest of the calls as the Gpf codec serializes them.
pub fn calls_digest(calls: &[VcfRecord]) -> u64 {
    fnv64(&serialize_batch(SerializerKind::Gpf, calls))
}

/// Calls scored against the planted truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Planted variants with a call on the same contig within ±1 bp.
    pub recall: f64,
    /// Calls matching a planted variant's position and alt allele exactly.
    pub precision: f64,
    /// Number of calls.
    pub calls: usize,
    /// Number of planted variants.
    pub planted: usize,
}

/// Score `calls` against `truth`.
pub fn score(truth: &[PlantedVariant], calls: &[VcfRecord]) -> Score {
    let called: HashSet<(u32, u64)> = calls.iter().map(|c| (c.contig, c.pos)).collect();
    let recalled = truth
        .iter()
        .filter(|t| {
            let (contig, pos) = (t.pos.contig, t.pos.pos);
            [pos.saturating_sub(1), pos, pos + 1]
                .iter()
                .any(|&p| called.contains(&(contig, p)))
        })
        .count();
    let planted: HashSet<(u32, u64, &[u8])> = truth
        .iter()
        .map(|t| (t.pos.contig, t.pos.pos, t.alt_allele.as_slice()))
        .collect();
    let exact = calls
        .iter()
        .filter(|c| planted.contains(&(c.contig, c.pos, c.alt_allele.as_slice())))
        .count();
    let ratio = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    Score {
        recall: ratio(recalled, truth.len()),
        precision: ratio(exact, calls.len()),
        calls: calls.len(),
        planted: truth.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpf_formats::vcf::Genotype;
    use gpf_formats::GenomePosition;

    fn planted(pos: u64, alt: &[u8]) -> PlantedVariant {
        PlantedVariant {
            pos: GenomePosition::new(0, pos),
            ref_allele: b"A".to_vec(),
            alt_allele: alt.to_vec(),
            het: true,
        }
    }

    fn call(pos: u64, alt: &[u8]) -> VcfRecord {
        VcfRecord {
            contig: 0,
            pos,
            ref_allele: b"A".to_vec(),
            alt_allele: alt.to_vec(),
            qual: 50.0,
            genotype: Genotype::Het,
            depth: 20,
        }
    }

    #[test]
    fn recall_allows_one_base_and_precision_needs_the_exact_allele() {
        let truth = [planted(100, b"G"), planted(200, b"T"), planted(300, b"C")];
        // 101 recalls 100 but is not exact; 200/T is exact; 300 is missed.
        let calls = [call(101, b"G"), call(200, b"T"), call(500, b"C")];
        let s = score(&truth, &calls);
        assert_eq!(s.recall, 2.0 / 3.0);
        assert_eq!(s.precision, 1.0 / 3.0);
        assert_eq!((s.calls, s.planted), (3, 3));
    }

    #[test]
    fn digest_follows_the_calls() {
        let a = [call(1, b"G")];
        assert_eq!(calls_digest(&a), calls_digest(&a.clone()));
        assert_ne!(calls_digest(&a), calls_digest(&[call(2, b"G")]));
    }
}
