//! One timed pipeline job: load the input text, run the Figure-3 pipeline,
//! collect the calls — measured from outside through public APIs only.

use crate::host;
use crate::inputs::{Inputs, Workload};
use gpf_core::process::{BundleStage, Process, RegionBundle};
use gpf_core::resource::{PartitionInfoBundle, ResourceAny};
use gpf_core::{prelude::*, FileLoader};
use gpf_engine::{Dataset, EngineConfig, EngineContext, JobRun};
use gpf_formats::vcf::VcfRecord;
use gpf_formats::ReferenceGenome;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wall seconds spent inside each Process, by name.
type Ledger = Arc<Mutex<BTreeMap<String, f64>>>;

fn charge(ledger: &Ledger, name: &str, since: Instant) {
    let secs = since.elapsed().as_secs_f64();
    if let Ok(mut l) = ledger.lock() {
        *l.entry(name.to_string()).or_default() += secs;
    }
}

/// Forwards every `Process` and `BundleStage` call to the wrapped Process
/// and charges the wall time of each to its name. It reports itself as a
/// bundle stage exactly when the wrapped Process is one, so the pipeline
/// fuses the same chains as without the wrapper.
struct Timed {
    inner: Arc<dyn Process>,
    ledger: Ledger,
}

impl Timed {
    fn stage(&self) -> &dyn BundleStage {
        self.inner
            .as_bundle_stage()
            // as_bundle_stage() below answers Some only when this holds.
            .expect("wrapped Process is a bundle stage")
    }
}

impl Process for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn input_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        self.inner.input_resources()
    }
    fn output_resources(&self) -> Vec<Arc<dyn ResourceAny>> {
        self.inner.output_resources()
    }
    fn execute(&self, ctx: &Arc<EngineContext>) {
        let t = Instant::now();
        self.inner.execute(ctx);
        charge(&self.ledger, self.name(), t);
    }
    fn as_bundle_stage(&self) -> Option<&dyn BundleStage> {
        self.inner
            .as_bundle_stage()
            .map(|_| self as &dyn BundleStage)
    }
}

impl BundleStage for Timed {
    fn partition_info(&self) -> Arc<PartitionInfoBundle> {
        self.stage().partition_info()
    }
    fn input_sam(&self) -> Arc<SamBundle> {
        self.stage().input_sam()
    }
    fn output_sam(&self) -> Option<Arc<SamBundle>> {
        self.stage().output_sam()
    }
    fn rod(&self) -> Option<Arc<VcfBundle>> {
        self.stage().rod()
    }
    fn reference(&self) -> Arc<ReferenceGenome> {
        self.stage().reference()
    }
    fn run_on_bundles(
        &self,
        ctx: &Arc<EngineContext>,
        bundles: Dataset<RegionBundle>,
    ) -> Dataset<RegionBundle> {
        let t = Instant::now();
        let out = self.stage().run_on_bundles(ctx, bundles);
        charge(&self.ledger, self.name(), t);
        out
    }
    fn finalize(&self, ctx: &Arc<EngineContext>, bundles: &Dataset<RegionBundle>) {
        let t = Instant::now();
        self.stage().finalize(ctx, bundles);
        charge(&self.ledger, self.name(), t);
    }
}

/// What one job produced and how long it took.
pub struct RunOutput {
    /// The collected variant calls.
    pub calls: Vec<VcfRecord>,
    /// Wall seconds from parsing the input text to the collected calls.
    pub wall_s: f64,
    /// Process CPU seconds (user + sys, all threads) over the same span.
    pub cpu_s: f64,
    /// Resident-set high-water mark during the job, in MB.
    pub peak_rss_mb: f64,
    /// Wall seconds of input parsing and dataset construction.
    pub load_s: f64,
    /// Wall seconds of the final collect.
    pub collect_s: f64,
    /// Wall seconds inside each Process.
    pub process_s: BTreeMap<String, f64>,
    /// The engine's always-recorded job metrics.
    pub job: JobRun,
    /// Fused chains the optimizer formed.
    pub fused_chains: usize,
    /// Genomic partitions after the repartitioner's splits.
    pub final_partitions: u32,
    /// Peak bytes the memory-budget ledger admitted (0 without a budget).
    pub ledger_peak_bytes: u64,
}

/// Run one job of `workload` on `inputs`.
pub fn run(inputs: &Inputs, workload: Workload) -> Result<RunOutput, String> {
    let ledger: Ledger = Arc::default();
    let timed = |p: Arc<dyn Process>| -> Arc<dyn Process> {
        Arc::new(Timed {
            inner: p,
            ledger: Arc::clone(&ledger),
        })
    };
    let parts = inputs.parts;
    let config = EngineConfig::gpf().with_parallelism(parts);
    let config = match workload.budget() {
        Some(bytes) => config.with_memory_budget(bytes),
        None => config,
    };
    let reference = &inputs.reference;
    let dict = reference.dict().clone();
    // The job's own copy of the set-up alignment, made before the clocks
    // start: copying is the benchmark's work, not the program's.
    let post_aligned = match workload {
        Workload::PostAlign => Some(
            inputs
                .aligned
                .clone()
                .ok_or("post-align inputs hold no alignment")?,
        ),
        Workload::Wgs | Workload::WgsBudget => None,
    };

    host::reset_peak_rss()?;
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();

    // Load: parse the input text into datasets. Under a memory budget the
    // inputs are the first eviction candidates.
    let ctx = EngineContext::new(config);
    let load_err = |e: gpf_core::PipelineError| format!("load failed: {e}");
    let known = FileLoader::load_vcf_to_rdd(&ctx, &inputs.known_vcf, parts).map_err(load_err)?;
    let dbsnp = VcfBundle::defined(
        "dbsnp",
        VcfHeaderInfo::new_header(dict.clone(), vec![]),
        known.evictable(),
    );
    let mut pipeline = Pipeline::new("wgs", Arc::clone(&ctx));
    let header = || SamHeaderInfo::unsorted_header(dict.clone());
    let aligned = if let Some(records) = post_aligned {
        let ds = Dataset::from_vec(Arc::clone(&ctx), records, parts);
        SamBundle::defined("alignedSam", header(), ds.evictable())
    } else {
        let reads = FileLoader::load_fastq_pair_to_rdd(&ctx, &inputs.fastq1, &inputs.fastq2, parts)
            .map_err(load_err)?;
        let fastq = FastqPairBundle::defined("fastqPair", reads.evictable());
        let aligned = SamBundle::undefined("alignedSam", header());
        pipeline.add_process(timed(
            BwaMemProcess::pair_end(
                "BwaMapping",
                Arc::clone(reference),
                fastq,
                Arc::clone(&aligned),
            )
            .with_aligner(Arc::clone(&inputs.aligner)),
        ));
        aligned
    };
    let load_s = t0.elapsed().as_secs_f64();

    let deduped = SamBundle::undefined("dedupedSam", header());
    pipeline.add_process(timed(MarkDuplicateProcess::new(
        "MarkDuplicate",
        aligned,
        Arc::clone(&deduped),
    )));
    let pinfo = PartitionInfoBundle::undefined("partInfo");
    pipeline.add_process(timed(ReadRepartitioner::new(
        "Repartitioner",
        vec![Arc::clone(&deduped)],
        Arc::clone(&pinfo),
        dict.lengths(),
        inputs.partition_len,
    )));
    let realigned = SamBundle::undefined("realignedSam", header());
    pipeline.add_process(timed(IndelRealignProcess::new(
        "IndelRealign",
        Arc::clone(reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        deduped,
        Arc::clone(&realigned),
    )));
    let recaled = SamBundle::undefined("recaledSam", header());
    pipeline.add_process(timed(BaseRecalibrationProcess::new(
        "BQSR",
        Arc::clone(reference),
        Some(Arc::clone(&dbsnp)),
        Arc::clone(&pinfo),
        realigned,
        Arc::clone(&recaled),
    )));
    let vcf_out = VcfBundle::undefined(
        "ResultVCF",
        VcfHeaderInfo::new_header(dict, vec!["sample".into()]),
    );
    pipeline.add_process(timed(HaplotypeCallerProcess::new(
        "HaplotypeCaller",
        Arc::clone(reference),
        Some(dbsnp),
        Arc::clone(&pinfo),
        recaled,
        Arc::clone(&vcf_out),
        false,
    )));
    pipeline
        .run()
        .map_err(|e| format!("pipeline failed: {e}"))?;
    let t_collect = Instant::now();
    let calls = vcf_out.dataset().collect_local();
    let collect_s = t_collect.elapsed().as_secs_f64();

    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let peak_rss_mb = host::peak_rss_mb()?;

    let process_s = ledger.lock().map(|l| l.clone()).unwrap_or_default();
    Ok(RunOutput {
        calls,
        wall_s,
        cpu_s,
        peak_rss_mb,
        load_s,
        collect_s,
        process_s,
        job: ctx.take_run(),
        fused_chains: pipeline.fused_chains().len(),
        final_partitions: pinfo.info().num_partitions(),
        ledger_peak_bytes: ctx.accountant().map(|a| a.peak()).unwrap_or(0),
    })
}
