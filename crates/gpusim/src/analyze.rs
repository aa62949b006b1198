//! Analytic timing estimation of mapped ASTs against a [`GpuModel`].
//!
//! The estimator never iterates the loops — it walks the AST once,
//! multiplying loop trip counts, classifying every access by its stride
//! along the coalescing axis (the `threadIdx.x` loop or the vectorized
//! loop), and charging the traffic to DRAM or L2 (fused intermediates).

use crate::model::{GpuModel, KernelTiming};
use polyject_codegen::{access_offset_expr, loop_extent, Ast, AstNode, Lanes, LoopKind, StmtNode};
use polyject_ir::{Kernel, TensorId};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The access pattern classification the model assigns (what nvprof's
/// transaction counters would reveal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessPattern {
    /// Loop-invariant along the coalescing axis: one transaction per warp.
    Broadcast,
    /// Stride-1 scalar stream.
    Coalesced,
    /// Stride-1 vector stream (64/128-bit transactions).
    Vectorized,
    /// Strided/scattered: sector amplification applies.
    Scattered,
}

impl AccessPattern {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AccessPattern::Broadcast => "broadcast",
            AccessPattern::Coalesced => "coalesced",
            AccessPattern::Vectorized => "vectorized",
            AccessPattern::Scattered => "scattered",
        }
    }
}

/// Per-access metrics of one statement's memory reference.
#[derive(Clone, Debug)]
pub struct AccessMetric {
    /// Statement name.
    pub stmt: String,
    /// Tensor name.
    pub tensor: String,
    /// Whether this is the statement's write.
    pub is_write: bool,
    /// Element stride along the coalescing axis.
    pub stride: i64,
    /// Classified pattern.
    pub pattern: AccessPattern,
    /// Useful bytes (instances × element size).
    pub useful_bytes: f64,
    /// Weighted DRAM traffic charged.
    pub dram_bytes: f64,
    /// Weighted L2 traffic charged.
    pub l2_bytes: f64,
    /// Memory instructions issued.
    pub instructions: f64,
}

impl AccessMetric {
    /// DRAM efficiency: useful bytes over charged DRAM traffic (1.0 when
    /// the access is served from L2).
    pub(crate) fn dram_efficiency(&self) -> f64 {
        if self.dram_bytes == 0.0 {
            1.0
        } else {
            (self.useful_bytes / self.dram_bytes).min(1.0)
        }
    }
}

/// A profiling report: the timing plus per-access metrics — the
/// reproduction of the paper's "profiled fused operators using nvprof".
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// The kernel-level timing estimate.
    pub timing: KernelTiming,
    /// One row per (statement, access).
    pub accesses: Vec<AccessMetric>,
}

impl ProfileReport {
    /// Renders the report as an nvprof-like table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<6} {:<8} {:<2} {:>8} {:<10} {:>12} {:>12} {:>6}",
            "stmt", "tensor", "rw", "stride", "pattern", "useful(B)", "dram(B)", "eff"
        )
        .expect("write");
        for a in &self.accesses {
            writeln!(
                out,
                "{:<6} {:<8} {:<2} {:>8} {:<10} {:>12.0} {:>12.0} {:>5.0}%",
                a.stmt,
                a.tensor,
                if a.is_write { "W" } else { "R" },
                a.stride,
                a.pattern.label(),
                a.useful_bytes,
                a.dram_bytes,
                a.dram_efficiency() * 100.0
            )
            .expect("write");
        }
        writeln!(
            out,
            "time {:.4} ms | bound by {} | dram {:.2e} B | l2 {:.2e} B | {:.0} threads",
            self.timing.ms(),
            self.timing.bottleneck(),
            self.timing.dram_bytes,
            self.timing.l2_bytes,
            self.timing.threads
        )
        .expect("write");
        out
    }
}

/// Estimates the execution time of one kernel launch.
///
/// # Examples
///
/// ```
/// use polyject_codegen::{compile, Config};
/// use polyject_gpusim::{estimate, GpuModel};
/// use polyject_ir::ops;
///
/// let kernel = ops::transpose_2d(1024, 1024);
/// let model = GpuModel::v100();
/// let isl = estimate(&compile(&kernel, Config::Isl).unwrap().ast, &kernel, &model);
/// let infl = estimate(&compile(&kernel, Config::Influenced).unwrap().ast, &kernel, &model);
/// assert!(infl.time < isl.time, "influenced transpose must be faster");
/// ```
pub fn estimate(ast: &Ast, kernel: &Kernel, model: &GpuModel) -> KernelTiming {
    profile(ast, kernel, model).timing
}

/// Like [`estimate`] but also returns per-access metrics, mirroring the
/// paper's nvprof-based profiling methodology.
///
/// # Examples
///
/// ```
/// use polyject_codegen::{compile, Config};
/// use polyject_gpusim::{profile, GpuModel};
/// use polyject_ir::ops;
///
/// let kernel = ops::transpose_2d(256, 256);
/// let c = compile(&kernel, Config::Isl).unwrap();
/// let report = profile(&c.ast, &kernel, &GpuModel::v100());
/// println!("{}", report.render());
/// assert_eq!(report.accesses.len(), 2); // one read, one write
/// ```
pub fn profile(ast: &Ast, kernel: &Kernel, model: &GpuModel) -> ProfileReport {
    let mut acc = Accumulator {
        kernel,
        model,
        params: kernel.param_defaults().iter().map(|&v| v as i128).collect(),
        pvals: kernel.param_defaults().to_vec(),
        written: BTreeSet::new(),
        timing: KernelTiming::default(),
        max_threads: 1.0,
        accesses: Vec::new(),
    };
    for r in &ast.roots {
        acc.walk(r, &Ctx::default());
    }
    acc.finish()
}

/// Walking context along one AST path.
#[derive(Clone, Debug, Default)]
struct Ctx {
    /// Product of enclosing trip counts.
    instances: f64,
    /// Product of hardware-parallel trip counts (blocks × threads ×
    /// vector groups).
    threads: f64,
    /// Coalescing axis: the vectorized loop if any, else `threadIdx.x`.
    coal: Option<(usize, Option<u8>)>,
    /// Innermost enclosing unmapped loop (fallback coalescing axis for
    /// purely sequential code).
    innermost_seq: Option<usize>,
    /// (dim, extent) of every enclosing loop, for guard discounts.
    extents: Vec<(usize, f64)>,
    /// (dim, extent) of loops inside the innermost `Block` loop — the
    /// per-block (tile-local) iteration scope whose data can stay cache
    /// resident.
    block_extents: Vec<(usize, f64)>,
    /// Product of trip counts inside the innermost `Block` loop.
    block_instances: f64,
}

impl Ctx {
    fn root() -> Ctx {
        Ctx {
            instances: 1.0,
            threads: 1.0,
            block_instances: 1.0,
            ..Ctx::default()
        }
    }
}

struct Accumulator<'a> {
    kernel: &'a Kernel,
    model: &'a GpuModel,
    params: Vec<i128>,
    pvals: Vec<i64>,
    written: BTreeSet<TensorId>,
    timing: KernelTiming,
    max_threads: f64,
    accesses: Vec<AccessMetric>,
}

impl Accumulator<'_> {
    fn walk(&mut self, node: &AstNode, ctx: &Ctx) {
        let ctx = if ctx.instances == 0.0 {
            &Ctx::root()
        } else {
            ctx
        };
        match node {
            AstNode::Loop(l) => {
                let extent = loop_extent(l, &self.params).unwrap_or(1).max(0) as f64;
                let mut c = ctx.clone();
                c.instances *= extent;
                c.extents.push((l.dim, extent));
                match l.kind {
                    LoopKind::Thread(axis) => {
                        c.threads *= extent;
                        if axis == 0 {
                            c.coal = Some((l.dim, None));
                        }
                        c.block_extents.push((l.dim, extent));
                        c.block_instances *= extent;
                    }
                    LoopKind::Block(_) => {
                        c.threads *= extent;
                        // A block boundary resets the tile-local scope:
                        // only loops *inside* the innermost block share
                        // one block's cache residency.
                        c.block_extents.clear();
                        c.block_instances = 1.0;
                    }
                    LoopKind::Vector(w) => {
                        // Lanes in flight: a vector thread keeps `w`
                        // elements outstanding, so occupancy-wise the loop
                        // contributes its full extent.
                        c.threads *= extent.max(1.0);
                        c.coal = Some((l.dim, Some(w)));
                        c.block_extents.push((l.dim, extent));
                        c.block_instances *= extent;
                    }
                    LoopKind::Seq | LoopKind::Parallel => {
                        c.innermost_seq = Some(l.dim);
                        c.block_extents.push((l.dim, extent));
                        c.block_instances *= extent;
                    }
                }
                for b in &l.body {
                    self.walk(b, &c);
                }
            }
            AstNode::Stmt(s) => self.leaf(s, ctx),
        }
    }

    fn leaf(&mut self, s: &StmtNode, ctx: &Ctx) {
        let stmt = self.kernel.statement(s.stmt);
        // Equality guards pin a loop variable: discount that loop's trips.
        let mut instances = ctx.instances;
        for g in &s.guards {
            if g.is_equality() {
                for (dim, extent) in &ctx.extents {
                    if g.coeff(*dim) != 0 && *extent > 0.0 {
                        instances /= extent;
                    }
                }
            }
        }
        self.max_threads = self.max_threads.max(ctx.threads);
        let coal_dim = ctx.coal.map(|(d, _)| d).or(ctx.innermost_seq);
        let vec_w = ctx.coal.and_then(|(_, w)| w);

        let model = self.model;
        for (i, (access, is_write)) in stmt.accesses().enumerate() {
            let elem = self.kernel.tensor(access.tensor()).elem().size_bytes() as f64;
            let useful = instances * elem;
            let off = access_offset_expr(self.kernel, s, access, &self.pvals);
            let stride_along = |d: usize| off.coeff(d).to_integer().map(|v| v.abs() as i64);
            let stride = coal_dim.and_then(stride_along).unwrap_or(0);
            let in_l2 = !is_write && self.written.contains(&access.tensor());
            // Under a vector loop the recorded form decides: the store and
            // the wide reads move w lanes per instruction; the other reads
            // are priced by their stride like any scalar access. (The
            // write comes first in `accesses()`, so read `i` is lane `i - 1`.)
            let wide = is_write || s.lanes.get(i - 1) == Some(&Lanes::Wide);
            let pattern = match (vec_w, stride) {
                (Some(_), _) if wide => AccessPattern::Vectorized,
                (_, 0) => AccessPattern::Broadcast,
                (_, 1) => AccessPattern::Coalesced,
                _ => AccessPattern::Scattered,
            };
            let (dram, l2, instr) = match pattern {
                AccessPattern::Broadcast => {
                    // Loop-invariant: one transaction per warp.
                    let t = useful / f64::from(model.warp_size);
                    (t, t, instances)
                }
                AccessPattern::Vectorized => {
                    (useful, useful, instances / f64::from(vec_w.unwrap_or(1)))
                }
                AccessPattern::Coalesced => {
                    let t = useful / model.scalar_bw_fraction;
                    (t, t, instances)
                }
                AccessPattern::Scattered => {
                    // Partially or fully scattered: each element drags in
                    // up to a whole 32-byte sector, so the amplification is
                    // `min(stride, sector/elem)` — 8× for f32, 16× for f16.
                    let sector_amp = (stride as f64).min(model.sector_bytes / elem);
                    let l2_amp = sector_amp.max(1.0);
                    // Tile-local reuse: when the per-block footprint fits
                    // the block's cache share and a companion dimension
                    // inside the block scope walks the fetched sectors
                    // contiguously, every sector is fully consumed before
                    // eviction — the churn stays in L1/L2 and DRAM sees
                    // unamplified traffic (the classic tiling win; untiled
                    // nests have no such companion in block scope).
                    let reused = ctx.block_instances * elem <= model.tile_cache_bytes
                        && ctx.block_extents.iter().any(|&(d, ext)| {
                            Some(d) != coal_dim
                                && stride_along(d).is_some_and(|sd| {
                                    let sd = sd as f64;
                                    sd >= 1.0
                                        && sd * elem < model.sector_bytes
                                        && ext * sd * elem >= model.sector_bytes
                                })
                        });
                    let dram_amp = if reused {
                        1.0
                    } else if is_write {
                        sector_amp.min(model.scattered_write_amp).max(1.0)
                    } else {
                        sector_amp.min(model.scattered_read_amp).max(1.0)
                    };
                    let l2t = useful * l2_amp / model.scalar_bw_fraction;
                    (useful * dram_amp / model.scalar_bw_fraction, l2t, instances)
                }
            };
            // A fused intermediate read back is served by the L2.
            let dram = if in_l2 { 0.0 } else { dram };
            self.timing.dram_bytes += dram;
            self.timing.l2_bytes += l2;
            self.timing.instructions += instr;
            self.accesses.push(AccessMetric {
                stmt: stmt.name().to_string(),
                tensor: self.kernel.tensor(access.tensor()).name().to_string(),
                is_write,
                stride,
                pattern,
                useful_bytes: useful,
                dram_bytes: dram,
                l2_bytes: l2,
                instructions: instr,
            });
        }
        let ops = stmt.expr().op_count() as f64;
        self.timing.flops += instances * ops;
        self.timing.instructions += instances * ops;
        self.written.insert(stmt.write().tensor());
    }

    fn finish(mut self) -> ProfileReport {
        let m = self.model;
        let util = (self.max_threads * m.thread_ilp / m.saturation_threads).clamp(1e-3, 1.0);
        self.timing.threads = self.max_threads;
        self.timing.dram_time = self.timing.dram_bytes / (m.dram_bw * util);
        self.timing.l2_time = self.timing.l2_bytes / (m.l2_bw * util);
        self.timing.compute_time = self.timing.flops / (m.fp32_flops * util);
        self.timing.issue_time = self.timing.instructions / (m.issue_rate * util);
        self.timing.time = self
            .timing
            .dram_time
            .max(self.timing.l2_time)
            .max(self.timing.compute_time)
            .max(self.timing.issue_time)
            + m.launch_overhead;
        ProfileReport {
            timing: self.timing,
            accesses: self.accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyject_codegen::{compile, Config};
    use polyject_ir::ops;

    fn time(kernel: &Kernel, cfg: Config) -> KernelTiming {
        let c = compile(kernel, cfg).unwrap();
        estimate(&c.ast, kernel, &GpuModel::v100())
    }

    #[test]
    fn transpose_ordering_matches_paper() {
        // isl: scattered stores; novec: coalesced stores, scattered loads;
        // infl: + vector stores. Expect infl <= novec < isl.
        let k = ops::transpose_2d(1024, 1024);
        let isl = time(&k, Config::Isl);
        let novec = time(&k, Config::NoVec);
        let infl = time(&k, Config::Influenced);
        assert!(
            novec.time < isl.time,
            "novec {} !< isl {}",
            novec.time,
            isl.time
        );
        assert!(
            infl.time <= novec.time,
            "infl {} !<= novec {}",
            infl.time,
            novec.time
        );
        // The gap must be substantial (the paper reports multiples).
        assert!(isl.time / infl.time > 1.5, "ratio {}", isl.time / infl.time);
    }

    #[test]
    fn elementwise_vectorization_helps_modestly() {
        let k = ops::elementwise_chain(1 << 20, 4);
        let novec = time(&k, Config::NoVec);
        let infl = time(&k, Config::Influenced);
        assert!(infl.time <= novec.time);
        assert!(novec.time / infl.time < 1.6, "vector gain should be modest");
    }

    #[test]
    fn bandwidth_bound_elementwise() {
        let k = ops::elementwise_chain(1 << 22, 2);
        let t = time(&k, Config::Isl);
        assert_eq!(t.bottleneck(), "dram");
        // DRAM traffic: A read + T0 write + T1 write (the T0 read back is
        // a fused intermediate and hits the L2 instead).
        assert!(t.dram_bytes >= 3.0 * 4.0 * (1 << 22) as f64);
        assert!(t.l2_bytes > t.dram_bytes);
    }

    #[test]
    fn fusion_l2_credit() {
        // The chain's intermediate tensors are read back: those reads are
        // L2 traffic, so dram < l2 traffic.
        let k = ops::elementwise_chain(1 << 20, 4);
        let t = time(&k, Config::Isl);
        assert!(t.dram_bytes < t.l2_bytes);
    }

    #[test]
    fn small_kernel_dominated_by_launch() {
        let k = ops::elementwise_chain(64, 1);
        let t = time(&k, Config::Isl);
        assert!(t.time >= GpuModel::v100().launch_overhead);
        assert!(t.time < 2.0 * GpuModel::v100().launch_overhead + 1e-5);
    }

    #[test]
    fn timing_fields_consistent() {
        let k = ops::bias_add_relu(512, 512);
        let t = time(&k, Config::Influenced);
        assert!(t.time > 0.0);
        assert!(t.threads >= 1.0);
        assert!(t.instructions > 0.0);
        let max_comp = t
            .dram_time
            .max(t.l2_time)
            .max(t.compute_time)
            .max(t.issue_time);
        assert!((t.time - max_comp - GpuModel::v100().launch_overhead).abs() < 1e-12);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use polyject_codegen::{compile, Config};
    use polyject_ir::ops;

    #[test]
    fn transpose_profile_classifies_patterns() {
        let k = ops::transpose_2d(512, 512);
        let m = GpuModel::v100();
        // isl: coalesced read, scattered write.
        let isl = profile(&compile(&k, Config::Isl).unwrap().ast, &k, &m);
        let w = isl.accesses.iter().find(|a| a.is_write).unwrap();
        let r = isl.accesses.iter().find(|a| !a.is_write).unwrap();
        assert_eq!(w.pattern, AccessPattern::Scattered);
        assert_eq!(r.pattern, AccessPattern::Coalesced);
        assert!(w.dram_efficiency() < 0.2);
        // infl: vectorized write, scattered read.
        let infl = profile(&compile(&k, Config::Influenced).unwrap().ast, &k, &m);
        let w = infl.accesses.iter().find(|a| a.is_write).unwrap();
        assert_eq!(w.pattern, AccessPattern::Vectorized);
        assert!((w.dram_efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_detected_on_bias() {
        let k = ops::bias_add_relu(128, 128);
        let m = GpuModel::v100();
        let rep = profile(&compile(&k, Config::Influenced).unwrap().ast, &k, &m);
        let bias = rep.accesses.iter().find(|a| a.tensor == "bias").unwrap();
        // bias[j] along the vectorized j loop is stride 1, so it is a
        // (vector) stream, not a broadcast; along i it would broadcast.
        assert!(matches!(
            bias.pattern,
            AccessPattern::Vectorized | AccessPattern::Coalesced | AccessPattern::Broadcast
        ));
        assert_eq!(rep.accesses.len(), 3);
    }

    #[test]
    fn fused_intermediate_charged_to_l2() {
        let k = ops::elementwise_chain(1 << 16, 2);
        let m = GpuModel::v100();
        let rep = profile(&compile(&k, Config::Isl).unwrap().ast, &k, &m);
        let t0_read = rep
            .accesses
            .iter()
            .find(|a| a.tensor == "T0" && !a.is_write)
            .unwrap();
        assert_eq!(t0_read.dram_bytes, 0.0, "intermediate read served by L2");
        assert!(t0_read.l2_bytes > 0.0);
        assert_eq!(t0_read.dram_efficiency(), 1.0);
    }

    #[test]
    fn report_renders() {
        let k = ops::transpose_2d(64, 64);
        let m = GpuModel::v100();
        let rep = profile(&compile(&k, Config::Isl).unwrap().ast, &k, &m);
        let text = rep.render();
        assert!(text.contains("stride"));
        assert!(text.contains("scattered"));
        assert!(text.contains("bound by"));
    }
}
