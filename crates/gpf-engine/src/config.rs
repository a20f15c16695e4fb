//! Engine configuration.

use crate::fault::FaultConfig;
use gpf_compress::SerializerKind;

/// Engine-wide configuration — the analogue of a `SparkConf`.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Serializer used for shuffle payloads and serialized persistence.
    ///
    /// The paper's GPF uses its genomic compression ([`SerializerKind::Gpf`]);
    /// the ADAM/GATK4-like baselines run the same pipelines under
    /// [`SerializerKind::KryoSim`].
    pub serializer: SerializerKind,
    /// Default number of partitions for `parallelize` and wide operations
    /// when the caller does not specify one.
    pub default_parallelism: usize,
    /// Estimated garbage-collection cost per byte of heap churn, in seconds.
    ///
    /// Deserialized shuffle data and freshly built records churn the heap;
    /// the paper's Table 4 shows GC time dropping when shuffle volume drops.
    /// The default (~25 s per GiB) is calibrated so a WGS-scale run spends
    /// a Table-4-like share of its core hours in GC.
    pub gc_seconds_per_byte: f64,
    /// Fixed per-record heap-churn estimate (object headers, boxing) in
    /// bytes, on top of payload bytes.
    pub per_record_overhead_bytes: u64,
    /// Fault-tolerance configuration. `None` (the default) gives every task
    /// one attempt with no injection and no speculation; a panic still
    /// surfaces as a typed failure, and shuffle and spill checksums are
    /// always verified.
    pub faults: Option<FaultConfig>,
    /// Adaptive skew mitigation (the paper's §4.4 dynamic repartition).
    /// `None` (the default) keeps every shuffle on its static layout.
    /// `Some(n)` enables the count-pass + split-table path on adaptive
    /// shuffles: a partition holding more than `n` records is split.
    /// `Some(0)` means "auto": the threshold becomes half the mean
    /// partition load, the same heuristic the static `ReadRepartitioner`
    /// uses.
    pub adaptive_skew: Option<u64>,
    /// Memory budget for resident partition bytes, in bytes. `None` (the
    /// default) runs fully in memory: no partition store carries a budget
    /// part, so nothing is sized, charged or evicted. `Some(bytes)`
    /// installs a [`crate::BudgetAccountant`] on the context, and the
    /// partition stores of shuffle and barrier outputs (and of any dataset
    /// marked `.evictable()`) are built with a budget part: they become LRU
    /// eviction candidates — dirty partitions spill to checksummed frames,
    /// clean ones are dropped and re-read from their spill image — and map
    /// stages over evicted partitions stream chunk-by-chunk instead of
    /// materializing them.
    pub memory_budget: Option<u64>,
}

impl EngineConfig {
    /// GPF's configuration: compressed genomic serializer.
    pub fn gpf() -> Self {
        Self { serializer: SerializerKind::Gpf, ..Self::default() }
    }

    /// A Kryo-configured Spark analogue (ADAM / GATK4 baselines).
    pub fn kryo() -> Self {
        Self { serializer: SerializerKind::KryoSim, ..Self::default() }
    }

    /// A Java-serialization Spark analogue (Spark's out-of-the-box default).
    pub fn java() -> Self {
        Self { serializer: SerializerKind::JavaSim, ..Self::default() }
    }

    /// Set the default parallelism.
    pub fn with_parallelism(mut self, parts: usize) -> Self {
        assert!(parts > 0, "parallelism must be positive");
        self.default_parallelism = parts;
        self
    }

    /// Enable fault injection, task retries and speculation under the
    /// given configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enable adaptive skew mitigation: shuffles routed through the
    /// adaptive path count records per base partition and split partitions
    /// holding more than `threshold` records. `0` selects the automatic
    /// threshold (half the mean partition load).
    pub fn with_adaptive_skew(mut self, threshold: u64) -> Self {
        self.adaptive_skew = Some(threshold);
        self
    }

    /// Cap resident partition bytes at `bytes`: install the memory-budget
    /// accountant and enable graceful degradation (eviction to checksummed
    /// spill, chunked streaming scans) when a stage would breach it.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "memory budget must be positive");
        self.memory_budget = Some(bytes);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            serializer: SerializerKind::Gpf,
            default_parallelism: 8,
            gc_seconds_per_byte: 25.0 / (1u64 << 30) as f64,
            per_record_overhead_bytes: 48,
            faults: None,
            adaptive_skew: None,
            memory_budget: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pick_serializers() {
        assert_eq!(EngineConfig::gpf().serializer, SerializerKind::Gpf);
        assert_eq!(EngineConfig::kryo().serializer, SerializerKind::KryoSim);
        assert_eq!(EngineConfig::java().serializer, SerializerKind::JavaSim);
    }

    #[test]
    fn with_parallelism_sets_value() {
        let c = EngineConfig::default().with_parallelism(64);
        assert_eq!(c.default_parallelism, 64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parallelism_rejected() {
        let _ = EngineConfig::default().with_parallelism(0);
    }

    #[test]
    fn adaptive_skew_default_off_and_opt_in() {
        assert!(EngineConfig::default().adaptive_skew.is_none());
        let auto = EngineConfig::gpf().with_adaptive_skew(0);
        assert_eq!(auto.adaptive_skew, Some(0));
        let fixed = EngineConfig::gpf().with_adaptive_skew(5000);
        assert_eq!(fixed.adaptive_skew, Some(5000));
    }

    #[test]
    fn memory_budget_default_off_and_opt_in() {
        assert!(EngineConfig::default().memory_budget.is_none());
        let c = EngineConfig::gpf().with_memory_budget(1 << 20);
        assert_eq!(c.memory_budget, Some(1 << 20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_memory_budget_rejected() {
        let _ = EngineConfig::default().with_memory_budget(0);
    }

    #[test]
    fn faults_default_off_and_opt_in() {
        assert!(EngineConfig::default().faults.is_none());
        let fc = FaultConfig::new(crate::fault::FaultPlan::seeded(9, 100));
        let c = EngineConfig::gpf().with_faults(fc);
        assert_eq!(c.faults.as_ref().map(|f| f.plan.seed), Some(9));
    }
}
