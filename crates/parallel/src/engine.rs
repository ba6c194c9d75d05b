//! The parallel sketch / query engine (paper §3.4).
//!
//! Both phases follow the same shape: the unordered pairs are partitioned
//! across computation workers ([`crate::partition::partition_pairs`]) that
//! run on the engine's reusable [`WorkerPool`] (no per-call thread spawning).
//! During sketching the workers fill disjoint slices of each window-major
//! row, which is streamed to the pile's single database worker
//! ([`PileBatchWriter`]); during querying they sweep the source's
//! window-major table and write correlations straight into their disjoint
//! slices of the packed result matrix.
//!
//! Both hot loops are tiled batch kernels over window-major data: the sketch
//! phase z-normalizes every basic window once and evaluates each pair-window
//! correlation as a dot product over contiguous rows
//! ([`tsubasa_core::stats::normalized_dot_corr`]), and the query phase sweeps
//! the window-major correlation table with [`QueryPlan::block_kernel`].

use std::ops::Range;
use std::time::{Duration, Instant};

use tsubasa_core::capacity::check_dense_budget;
use tsubasa_core::error::{Error, Result};
use tsubasa_core::matrix::CorrelationMatrix;
use tsubasa_core::plan::{row_segments, CorrView, PlanMethod, QueryPlan};
use tsubasa_core::sketch::pair_index;
use tsubasa_core::source::{audit_nan_chunk, check_source_windows, CorrSource};
use tsubasa_core::stats::{normalize_into, normalized_dot_corr, WindowStats};
use tsubasa_core::sweep::{CorrelationBounds, EdgeList, EdgeSink, TileSink, TopK, TopKSink};
use tsubasa_core::window::BasicWindowing;
use tsubasa_core::Job;
use tsubasa_core::SeriesCollection;
use tsubasa_dft::dft::{interleaved_distance, DftPlanner};
use tsubasa_storage::pile::{
    PileBatchWriter, PileSlab, PileWriter, SegmentKind, SketchPile, StoreLayout,
};

use crate::partition::partition_pairs;
use crate::pool::WorkerPool;
use crate::timing::{QueryReport, SketchReport};

/// Which sketch the computation workers produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchMethod {
    /// TSUBASA's exact sketch: per-pair per-window Pearson correlations.
    Exact,
    /// The DFT comparator's sketch: per-series DFT coefficients of normalized
    /// windows and per-pair per-window coefficient distances, using the given
    /// number of coefficients.
    Dft {
        /// Number of DFT coefficients (`n` of `Dist_n`).
        coefficients: usize,
    },
}

/// How the query phase recombines the stored per-window table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMethod {
    /// Exact recombination (Lemma 1) from stored per-window correlations.
    Exact,
    /// Approximate recombination (Equation 5) from stored DFT distances.
    Approximate,
}

/// The default [`ParallelConfig::batch_pairs`].
pub const DEFAULT_BATCH_PAIRS: usize = 256;

/// Configuration of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of computation workers (the paper uses 63 plus one database
    /// worker).
    pub workers: usize,
    /// Number of pairs per query chunk: the streamed sweeps' tile width and
    /// the read size of chunked sources. Also bounds the sketch phase's
    /// writer queue (in window-major slabs).
    pub batch_pairs: usize,
    /// What the sketch phase computes.
    pub sketch_method: SketchMethod,
    /// Audit chunks skipped by Equation 4 pruning for NaN table values.
    /// Pruning decides from per-series statistics alone, so a NaN window
    /// hiding in a skippable chunk is never read and its pair goes
    /// uncounted. With this set, skipped chunks are still read and
    /// NaN-audited — the tiles stay skipped (no recombination work), only
    /// the accounting becomes exhaustive, at the cost of the reads pruning
    /// would have saved.
    pub audit_pruned_chunks: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(1).max(1))
            .unwrap_or(1);
        Self {
            workers,
            batch_pairs: DEFAULT_BATCH_PAIRS,
            sketch_method: SketchMethod::Exact,
            audit_pruned_chunks: false,
        }
    }
}

/// The parallel, disk-based TSUBASA engine.
///
/// The engine owns a reusable [`WorkerPool`] sized to its configured worker
/// count: every [`ParallelEngine::sketch_to_pile`] and
/// [`ParallelEngine::query`] call runs its computation workers on those
/// long-lived threads, so back-to-back phases (and repeated queries)
/// pay thread startup once per engine instead of once per call.
#[derive(Debug)]
pub struct ParallelEngine {
    config: ParallelConfig,
    pool: WorkerPool,
}

impl ParallelEngine {
    /// Create an engine with the given configuration, spawning its worker
    /// pool.
    pub fn new(config: ParallelConfig) -> Self {
        let pool = WorkerPool::new(config.workers.max(1));
        Self { config, pool }
    }

    /// The engine's configuration.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// The engine's reusable worker pool (shareable with the in-memory
    /// sweeps via [`tsubasa_core::runner::JobRunner`]).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The sketch shape of `collection` at the given basic-window size.
    pub fn layout_for(collection: &SeriesCollection, basic_window: usize) -> Result<StoreLayout> {
        let windowing = BasicWindowing::new(basic_window)?;
        Ok(StoreLayout {
            n_series: collection.len(),
            n_windows: windowing.complete_windows(collection.series_len()),
            basic_window,
        })
    }

    /// Sketch `collection` into a fresh pile using the configured number of
    /// computation workers plus one database worker (the threaded
    /// [`PileBatchWriter`]), and return the mapped result alongside the
    /// timing breakdown (Figure 6a).
    ///
    /// A per-series pass computes the window statistics (one window-major
    /// stats slab) and the z-normalized rows or the kept DFT coefficients
    /// (one planned `coefficients_into` row per window). The pair
    /// pass then proceeds one window at a time, with the computation workers
    /// filling disjoint carved slices of the full-width window row, which is
    /// streamed (in window order) to the database worker as one coalescable
    /// slab. Under [`SketchMethod::Dft`] the pile stores the Equation 3
    /// estimates `1 − d²/2` of the coefficient distances, which is what makes
    /// approximate queries zero-copy too.
    pub fn sketch_to_pile(
        &self,
        collection: &SeriesCollection,
        basic_window: usize,
        writer: PileWriter,
    ) -> Result<(SketchReport, SketchPile)> {
        let wall_start = Instant::now();
        let expected = Self::layout_for(collection, basic_window)?;
        let fresh = SegmentKind::ALL.iter().all(|&k| writer.coverage(k) == 0);
        if writer.n_series() != expected.n_series
            || writer.basic_window() != expected.basic_window
            || !fresh
        {
            return Err(Error::SketchMismatch {
                requested: format!("fresh pile for {expected:?}"),
                available: format!(
                    "pile(n_series={}, basic_window={}, windows appended={})",
                    writer.n_series(),
                    writer.basic_window(),
                    !fresh
                ),
            });
        }
        let windowing = BasicWindowing::new(basic_window)?;
        let ns = expected.n_windows;
        let n = collection.len();
        if ns == 0 {
            return Err(Error::InvalidBasicWindow {
                window: basic_window,
                series_len: collection.series_len(),
            });
        }
        let bw = basic_window;
        let exact = matches!(self.config.sketch_method, SketchMethod::Exact);

        let batch = PileBatchWriter::spawn(writer, self.config.batch_pairs.max(1));
        let mut compute_time = Duration::ZERO;

        // Per-series pass: window statistics (one window-major stats slab),
        // the window-major z-normalized copy of the data for the exact tiled
        // kernel, and (for the DFT comparator) the kept coefficients of every
        // normalized window. All of it is shared read-only with the pair
        // workers below.
        let per_series_start = Instant::now();
        // z[(w·n + i)·B ..] is basic window `w` of series `i`, z-scored; a
        // pair's window correlation is then one dot product over two
        // contiguous rows instead of a centered cross-product over raw data.
        let mut z = vec![0.0f64; if exact { ns * n * bw } else { 0 }];
        // coeffs[(w·n + i)·2c ..] holds the first `c` coefficients of basic
        // window `w` of series `i`, interleaved `(re, im)` — only what
        // `Dist_c` reads.
        let dft = match self.config.sketch_method {
            SketchMethod::Exact => None,
            SketchMethod::Dft { coefficients } => Some((DftPlanner::new(bw), coefficients.min(bw))),
        };
        let row_len = dft.as_ref().map_or(0, |&(_, n_coeff)| 2 * n_coeff);
        let mut coeffs = vec![0.0f64; ns * n * row_len];
        let mut stats_rows = vec![0.0f64; ns * n * 3];
        for (id, series) in collection.iter_with_ids() {
            let values = series.values();
            let stats: Vec<WindowStats> = (0..ns)
                .map(|w| WindowStats::from_values(windowing.window_span(w).slice(values)))
                .collect();
            for (w, st) in stats.iter().enumerate() {
                let base = (w * n + id) * 3;
                stats_rows[base] = st.len as f64;
                stats_rows[base + 1] = st.mean;
                stats_rows[base + 2] = st.std;
            }
            for (w, st) in stats.iter().enumerate() {
                let span = windowing.window_span(w);
                if let Some((planner, n_coeff)) = &dft {
                    let row = &mut coeffs[(w * n + id) * row_len..(w * n + id + 1) * row_len];
                    planner.coefficients_into(span.slice(values), st, *n_coeff, row);
                } else {
                    let row = &mut z[(w * n + id) * bw..(w * n + id + 1) * bw];
                    normalize_into(span.slice(values), st, row);
                }
            }
        }
        compute_time += per_series_start.elapsed();
        batch
            .sender()
            .send(PileSlab::Stats(stats_rows))
            .map_err(|_| Error::Storage("pile writer hung up".into()))?;

        // Pair pass, window at a time: workers fill disjoint carved slices of
        // the full-width packed row, preserving the strict window order the
        // pile's append discipline requires.
        let partitions = partition_pairs(n, self.config.workers.max(1));
        let pair_count: usize = partitions.iter().map(|p| p.len()).sum();
        let method = self.config.sketch_method;
        let z_ref = &z;
        let coeffs_ref = &coeffs;
        for w in 0..ns {
            if pair_count == 0 {
                break;
            }
            let mut row = vec![0.0f64; pair_count];
            {
                let slices = tsubasa_core::plan::carve_packed_slices(
                    &mut row,
                    partitions.iter().map(|p| p.len()),
                );
                let live: Vec<_> = partitions
                    .iter()
                    .zip(slices)
                    .filter(|(p, _)| !p.is_empty())
                    .collect();
                let mut outcomes: Vec<Duration> = vec![Duration::ZERO; live.len()];
                let jobs: Vec<Job<'_>> = live
                    .into_iter()
                    .zip(outcomes.iter_mut())
                    .map(|((part, slice), busy)| {
                        Box::new(move || {
                            let start = Instant::now();
                            for (slot, &(a, b)) in slice.iter_mut().zip(&part.pairs) {
                                *slot = match method {
                                    SketchMethod::Exact => {
                                        let za = &z_ref[(w * n + a) * bw..(w * n + a + 1) * bw];
                                        let zb = &z_ref[(w * n + b) * bw..(w * n + b + 1) * bw];
                                        normalized_dot_corr(za, zb)
                                    }
                                    SketchMethod::Dft { .. } => {
                                        let row = |i: usize| {
                                            &coeffs_ref
                                                [(w * n + i) * row_len..(w * n + i + 1) * row_len]
                                        };
                                        let d = interleaved_distance(row(a), row(b));
                                        1.0 - d * d / 2.0
                                    }
                                };
                            }
                            *busy = start.elapsed();
                        }) as Job<'_>
                    })
                    .collect();
                self.pool.run_jobs(jobs);
                for busy in outcomes {
                    compute_time += busy;
                }
            }
            let slab = if exact {
                PileSlab::Corrs(row)
            } else {
                PileSlab::Ests(row)
            };
            batch
                .sender()
                .send(slab)
                .map_err(|_| Error::Storage("pile writer hung up".into()))?;
        }

        let (writer_stats, writer) = batch.finish()?;
        let pile = writer.into_pile()?;
        Ok((
            SketchReport {
                workers: self.config.workers.max(1),
                pairs: pair_count,
                compute_time,
                write_time: writer_stats.write_time,
                wall_time: wall_start.elapsed(),
            },
            pile,
        ))
    }

    /// The plan-level method a query method recombines with.
    fn plan_method(method: QueryMethod) -> PlanMethod {
        match method {
            QueryMethod::Exact => PlanMethod::Exact,
            QueryMethod::Approximate => PlanMethod::Approximate,
        }
    }

    /// Build the all-pair correlation matrix for an aligned range of basic
    /// windows from **any** [`CorrSource`] — in-memory sketches or a mapped
    /// pile — and report the read/compute breakdown (Figure 6b).
    ///
    /// The per-series statistics are fetched once and folded into a single
    /// read-only [`QueryPlan`] shared by every worker; each worker owns a
    /// disjoint contiguous slice of the packed upper-triangle result (its
    /// partition's pairs are contiguous in row-major order), so the matrix is
    /// assembled without any merge step. Sources that serve a full-width
    /// window-major table ([`CorrSource::full_table`]: in-memory sketches,
    /// mapped piles) are swept in place with global pair offsets; chunked
    /// sources (an approximate `DftSketchSet` above the dense budget) are
    /// gathered batch by batch through [`CorrSource::chunk_table`]. The kernel's per-pair accumulation is
    /// independent of tiling, so the two shapes are bit-identical.
    pub fn query<S: CorrSource + ?Sized>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
    ) -> Result<(CorrelationMatrix, QueryReport)> {
        let wall_start = Instant::now();
        let pm = Self::plan_method(method);
        check_source_windows(source, &windows, pm)?;
        let n = source.series_count();

        // Fetch every series' window statistics once up front; they are
        // shared by all pairs of the partitioned workers.
        let read_start = Instant::now();
        let series_stats = source.series_stats(windows.clone())?;
        let table = if n >= 2 {
            source.full_table(windows.clone(), pm)?
        } else {
            None
        };
        let series_read_time = read_start.elapsed();

        // Precompute the per-series half of the recombination once for all
        // pairs. Lemma 1 and Equation 5 share their recombination algebra
        // (only the per-window correlation source differs: sketched Pearson
        // correlations vs `1 − d²/2` estimates), so both query methods
        // evaluate through the same plan batch kernel.
        let plan = if n >= 2 {
            Some(QueryPlan::from_window_stats(&series_stats)?)
        } else {
            None
        };

        let partitions = partition_pairs(n, self.config.workers.max(1));
        let pair_count: usize = partitions.iter().map(|p| p.len()).sum();

        // The flat packed upper triangle, carved into one disjoint
        // contiguous slice per partition (partitions are contiguous in
        // row-major pair order).
        check_dense_budget(n * n.saturating_sub(1) / 2, 1)?;
        let mut values = vec![0.0f64; n * n.saturating_sub(1) / 2];
        let slices = tsubasa_core::plan::carve_packed_slices(
            &mut values,
            partitions.iter().map(|p| p.len()),
        );

        let plan_ref = plan.as_ref();
        let view = table.as_ref().map(|t| t.view());
        let windows_ref = &windows;
        let batch_pairs = self.config.batch_pairs.max(1);

        #[derive(Default)]
        struct WorkerOut {
            read: Duration,
            compute: Duration,
        }

        let live: Vec<(&crate::partition::PairPartition, &mut [f64])> = partitions
            .iter()
            .zip(slices)
            .filter(|(part, _)| !part.is_empty())
            .collect();
        let mut outcomes: Vec<Result<WorkerOut>> =
            (0..live.len()).map(|_| Ok(WorkerOut::default())).collect();
        let jobs: Vec<Job<'_>> = live
            .into_iter()
            .zip(outcomes.iter_mut())
            .map(|((part, slice), outcome)| {
                Box::new(move || {
                    *outcome = (|| -> Result<WorkerOut> {
                        let mut out = WorkerOut::default();
                        let plan = plan_ref.expect("plan is built for n >= 2 queries");
                        if let Some(view) = view {
                            // Full-width table: sweep the shared view in
                            // place — the kernel's pair offset is the global
                            // packed pair index.
                            let t1 = Instant::now();
                            let (a0, b0) = part.pairs[0];
                            let mut offset = pair_index(a0, b0, n);
                            let mut cursor = 0;
                            for (i, j0, len) in row_segments(offset, part.pairs.len(), n) {
                                plan.block_kernel(
                                    i,
                                    j0,
                                    view,
                                    offset,
                                    &mut slice[cursor..cursor + len],
                                );
                                offset += len;
                                cursor += len;
                            }
                            out.compute += t1.elapsed();
                        } else {
                            // Chunked source: the chunk table arrives
                            // already window-major for the batch kernel.
                            let mut cursor = 0;
                            for chunk in part.pairs.chunks(batch_pairs) {
                                let t0 = Instant::now();
                                let corrs_t = source.chunk_table(chunk, windows_ref.clone(), pm)?;
                                out.read += t0.elapsed();

                                let t1 = Instant::now();
                                let (a0, b0) = chunk[0];
                                let start = pair_index(a0, b0, n);
                                let mut offset = 0;
                                for (i, j0, len) in row_segments(start, chunk.len(), n) {
                                    plan.block_kernel(
                                        i,
                                        j0,
                                        corrs_t.view(),
                                        offset,
                                        &mut slice[cursor..cursor + len],
                                    );
                                    offset += len;
                                    cursor += len;
                                }
                                out.compute += t1.elapsed();
                            }
                        }
                        Ok(out)
                    })();
                }) as Job<'_>
            })
            .collect();
        self.pool.run_jobs(jobs);

        let matrix = CorrelationMatrix::from_upper_triangle(n, values);
        let mut read_time = series_read_time;
        let mut compute_time = Duration::ZERO;
        for outcome in outcomes {
            let out = outcome?;
            read_time += out.read;
            compute_time += out.compute;
        }

        Ok((
            matrix,
            QueryReport {
                workers: self.config.workers.max(1),
                pairs: pair_count,
                read_time,
                compute_time,
                wall_time: wall_start.elapsed(),
            },
        ))
    }

    /// The thresholded network (`c > θ`, matching
    /// `query(..)?.0.threshold(theta)` exactly) computed from any
    /// [`CorrSource`] without ever materializing the packed correlation
    /// triangle: each partition worker streams its chunks through a
    /// per-worker [`EdgeSink`] and the per-partition edge lists are
    /// concatenated (partitions are contiguous in row-major pair order, so
    /// the merge is a plain append).
    ///
    /// On the [`QueryMethod::Approximate`] path, whole chunks are skipped
    /// *before* their table columns are touched when their Equation 4
    /// per-tile correlation upper bound cannot reach θ — the paper's pruning
    /// radius applied at I/O granularity (a pruned chunk is neither gathered
    /// nor faulted in from a mapping). The exact path observes
    /// every pair, so its NaN audit (NaN table windows, counted per
    /// pair and exposed through [`EdgeList::nan_pair_count`]) is exhaustive;
    /// pruned approximate chunks are audited only under
    /// [`ParallelConfig::audit_pruned_chunks`].
    pub fn network<S: CorrSource + ?Sized>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
        theta: f64,
    ) -> Result<(EdgeList, QueryReport)> {
        if !(-1.0..=1.0).contains(&theta) {
            return Err(Error::InvalidThreshold(theta));
        }
        let make = |_: &QueryPlan| EdgeSink::new(theta);
        let prune = matches!(method, QueryMethod::Approximate);
        let (sinks, n, report) =
            self.streamed_source_query(source, windows, method, prune, make)?;
        let mut edges = EdgeList::from_parts(n, Vec::new(), 0);
        for sink in sinks {
            edges.absorb(sink.finish(n));
        }
        Ok((edges, report))
    }

    /// The `k` strongest edges of the query window, streamed from any
    /// [`CorrSource`] with a per-worker bounded heap ([`TopKSink`]) merged
    /// across partitions. Chunks whose Equation 4 upper bound cannot beat
    /// the worker's current k-th strength are skipped before their columns
    /// are touched (both query methods — the bound holds for exact and
    /// approximate recombination alike). Ranking is total
    /// ([`f64::total_cmp`], ties by ascending pair index) and equals the
    /// sorted dense matrix's top k; sketches with NaN windows rank as the
    /// kernel's `0.0` convention and are counted in [`TopK::nan_pairs`] as
    /// audit metadata.
    pub fn top_k<S: CorrSource + ?Sized>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
        k: usize,
    ) -> Result<(TopK, QueryReport)> {
        let make = |_: &QueryPlan| TopKSink::new(k);
        let (sinks, _, report) = self.streamed_source_query(source, windows, method, true, make)?;
        let mut merged = TopKSink::new(k);
        for sink in sinks {
            merged.absorb(sink);
        }
        Ok((merged.finish(), report))
    }

    /// Shared body of the streamed queries: fetch the per-series statistics
    /// once, build the shared plan (and, when `prune` is set, the Equation 4
    /// bound components), then fan the partitions out on the worker pool —
    /// every worker drives its own sink over its own chunks, with per-chunk
    /// working memory only. Returns the per-partition sinks (in row-major
    /// partition order) for the caller to merge.
    ///
    /// Full-table sources are swept zero-copy off the shared view; chunked
    /// sources are read batch by batch. Either way the chunks pass through
    /// the one shared NaN-audit hook
    /// ([`tsubasa_core::source::audit_nan_chunk`]) before recombination.
    fn streamed_source_query<S, K, F>(
        &self,
        source: &S,
        windows: Range<usize>,
        method: QueryMethod,
        prune: bool,
        make_sink: F,
    ) -> Result<(Vec<K>, usize, QueryReport)>
    where
        S: CorrSource + ?Sized,
        K: TileSink + Send,
        F: Fn(&QueryPlan) -> K,
    {
        let wall_start = Instant::now();
        let pm = Self::plan_method(method);
        check_source_windows(source, &windows, pm)?;
        let n = source.series_count();

        let read_start = Instant::now();
        let series_stats = source.series_stats(windows.clone())?;
        if n < 2 {
            return Ok((
                Vec::new(),
                n,
                QueryReport {
                    workers: self.config.workers.max(1),
                    pairs: 0,
                    read_time: read_start.elapsed(),
                    compute_time: Duration::ZERO,
                    wall_time: wall_start.elapsed(),
                },
            ));
        }
        let table = source.full_table(windows.clone(), pm)?;
        let series_read_time = read_start.elapsed();

        let plan = QueryPlan::from_window_stats(&series_stats)?;
        let bounds = prune.then(|| CorrelationBounds::from_plan(&plan));

        let partitions = partition_pairs(n, self.config.workers.max(1));
        let pair_count: usize = partitions.iter().map(|p| p.len()).sum();
        let batch_pairs = self.config.batch_pairs.max(1);
        let audit_pruned = self.config.audit_pruned_chunks;

        let plan_ref = &plan;
        let bounds_ref = bounds.as_ref();
        let view = table.as_ref().map(|t| t.view());
        let windows_ref = &windows;

        let live: Vec<&crate::partition::PairPartition> =
            partitions.iter().filter(|p| !p.is_empty()).collect();
        let mut sinks: Vec<K> = live.iter().map(|_| make_sink(&plan)).collect();
        let mut outcomes: Vec<Result<StreamedOut>> = (0..live.len())
            .map(|_| Ok(StreamedOut::default()))
            .collect();
        let jobs: Vec<Job<'_>> = live
            .iter()
            .zip(sinks.iter_mut().zip(outcomes.iter_mut()))
            .map(|(part, (sink, outcome))| {
                let part = *part;
                Box::new(move || {
                    *outcome = sweep_source_partition(
                        source,
                        plan_ref,
                        view,
                        bounds_ref,
                        pm,
                        n,
                        windows_ref,
                        batch_pairs,
                        audit_pruned,
                        &part.pairs,
                        sink,
                    );
                }) as Job<'_>
            })
            .collect();
        self.pool.run_jobs(jobs);

        let mut read_time = series_read_time;
        let mut compute_time = Duration::ZERO;
        for outcome in outcomes {
            let out = outcome?;
            read_time += out.read;
            compute_time += out.compute;
        }

        Ok((
            sinks,
            n,
            QueryReport {
                workers: self.config.workers.max(1),
                pairs: pair_count,
                read_time,
                compute_time,
                wall_time: wall_start.elapsed(),
            },
        ))
    }
}

/// Per-worker timing of one streamed partition sweep.
#[derive(Default)]
struct StreamedOut {
    read: Duration,
    compute: Duration,
}

/// One worker's streamed sweep of its partition over a [`CorrSource`] — the
/// single body behind every streamed backend. With a full-width table
/// (`full` is `Some`: in-memory sketches, mapped piles) the chunks are swept
/// in place with global pair offsets and nothing is ever copied; without one
/// (an approximate `DftSketchSet` above the dense budget) each chunk is
/// fetched through [`CorrSource::chunk_table`] and swept with chunk-local
/// offsets. Working memory is one chunk's table (chunked shape
/// only) plus one `batch_pairs`-sized output tile — never the partition's
/// (let alone the triangle's) full size.
///
/// Equation 4 chunk pruning is decided from per-series statistics alone: a
/// skipped chunk's columns are never dereferenced (no page faults on a
/// mapping) or gathered. Under `audit_pruned` the skipped chunk
/// is still NaN-audited through the shared hook — the tiles stay skipped,
/// only the accounting becomes exhaustive, at the cost of the reads pruning
/// would have saved.
#[allow(clippy::too_many_arguments)]
fn sweep_source_partition<S: CorrSource + ?Sized>(
    source: &S,
    plan: &QueryPlan,
    full: Option<CorrView<'_>>,
    bounds: Option<&CorrelationBounds>,
    method: PlanMethod,
    n: usize,
    windows: &Range<usize>,
    batch_pairs: usize,
    audit_pruned: bool,
    pairs: &[(usize, usize)],
    sink: &mut dyn TileSink,
) -> Result<StreamedOut> {
    let mut out = StreamedOut::default();
    let mut tile = vec![0.0f64; batch_pairs];
    for chunk in pairs.chunks(batch_pairs) {
        let (a0, b0) = chunk[0];
        let first = pair_index(a0, b0, n);

        if let Some(b) = bounds {
            let skippable = row_segments(first, chunk.len(), n)
                .into_iter()
                .all(|(i, j0, len)| sink.tile_skippable(b.tile_bound(i, j0, len)));
            if skippable {
                if audit_pruned {
                    match full {
                        Some(view) => audit_nan_chunk(view, chunk, n, sink),
                        None => {
                            let t0 = Instant::now();
                            let corrs_t = source.chunk_table(chunk, windows.clone(), method)?;
                            out.read += t0.elapsed();
                            audit_nan_chunk(corrs_t.view(), chunk, n, sink);
                        }
                    }
                }
                for (i, j0, len) in row_segments(first, chunk.len(), n) {
                    sink.tile_skipped(i, j0, len);
                }
                continue;
            }
        }

        // The NaN audit precedes recombination: the kernel clamps NaN window
        // values to the 0.0 convention, so a NaN table window would
        // otherwise silently produce a plausible-looking correlation.
        match full {
            Some(view) => {
                let t1 = Instant::now();
                audit_nan_chunk(view, chunk, n, sink);
                let mut offset = first;
                for (i, j0, len) in row_segments(first, chunk.len(), n) {
                    plan.block_kernel(i, j0, view, offset, &mut tile[..len]);
                    sink.consume(i, j0, offset, &tile[..len]);
                    offset += len;
                }
                out.compute += t1.elapsed();
            }
            None => {
                let t0 = Instant::now();
                let corrs_t = source.chunk_table(chunk, windows.clone(), method)?;
                out.read += t0.elapsed();

                let t1 = Instant::now();
                audit_nan_chunk(corrs_t.view(), chunk, n, sink);
                let mut offset = 0;
                for (i, j0, len) in row_segments(first, chunk.len(), n) {
                    plan.block_kernel(i, j0, corrs_t.view(), offset, &mut tile[..len]);
                    sink.consume(i, j0, pair_index(i, j0, n), &tile[..len]);
                    offset += len;
                }
                out.compute += t1.elapsed();
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tsubasa_core::plan::TransposedCorrs;
    use tsubasa_core::source::PairTable;
    use tsubasa_core::{baseline, QueryWindow, SketchSet};
    use tsubasa_data::station::{generate_ncea_like, NceaLikeConfig};
    use tsubasa_dft::sketch::{DftSketchSet, Transform};

    fn small_collection() -> SeriesCollection {
        generate_ncea_like(&NceaLikeConfig {
            stations: 10,
            points: 600,
            seed: 3,
            regions: 3,
            correlation_length_km: 900.0,
            missing_fraction: 0.0,
        })
        .unwrap()
    }

    fn engine(workers: usize, method: SketchMethod) -> ParallelEngine {
        ParallelEngine::new(ParallelConfig {
            workers,
            batch_pairs: 8,
            sketch_method: method,
            audit_pruned_chunks: false,
        })
    }

    fn temp_pile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tsubasa-engine-pile-{}-{tag}.pile",
            std::process::id()
        ))
    }

    /// A mapped pile in a per-test temp file, removed on drop.
    struct TestPile {
        pile: SketchPile,
        path: PathBuf,
    }

    impl Drop for TestPile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
        }
    }

    /// Sketch `c` into a fresh pile with `eng`.
    fn sketch_pile(eng: &ParallelEngine, c: &SeriesCollection, b: usize, tag: &str) -> TestPile {
        let path = temp_pile(tag);
        let writer = PileWriter::create(&path, c.len(), b).unwrap();
        let (report, pile) = eng.sketch_to_pile(c, b, writer).unwrap();
        assert_eq!(report.pairs, c.pair_count());
        TestPile { pile, path }
    }

    /// Copy `src`'s stats and `kind` table into a new pile, letting `edit`
    /// rewrite each window row of the table first.
    fn copy_pile(
        src: &SketchPile,
        kind: SegmentKind,
        tag: &str,
        edit: impl Fn(usize, &mut [f64]),
    ) -> TestPile {
        let n = src.n_series();
        let ns = src.windows(kind);
        let path = temp_pile(tag);
        let mut writer = PileWriter::create(&path, n, src.basic_window()).unwrap();
        let stats = src.series_stats(0..ns).unwrap();
        let table = src.pair_table(0..ns, kind).unwrap();
        for w in 0..ns {
            let row: Vec<f64> = stats
                .iter()
                .flat_map(|s| [s[w].len as f64, s[w].mean, s[w].std])
                .collect();
            writer.append(SegmentKind::SeriesStats, &row).unwrap();
            let mut row = table.view().window_row(w).to_vec();
            edit(w, &mut row);
            writer.append(kind, &row).unwrap();
        }
        TestPile {
            pile: writer.into_pile().unwrap(),
            path,
        }
    }

    /// A source that hides its full table, forcing the engine's chunked
    /// sweep (the shape an approximate `DftSketchSet` takes above the dense
    /// budget).
    struct ChunkedOnly<'a, S: ?Sized>(&'a S);

    impl<S: CorrSource + ?Sized> CorrSource for ChunkedOnly<'_, S> {
        fn series_count(&self) -> usize {
            self.0.series_count()
        }

        fn window_count(&self, method: PlanMethod) -> usize {
            self.0.window_count(method)
        }

        fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>> {
            self.0.series_stats(windows)
        }

        fn full_table(
            &self,
            _windows: Range<usize>,
            _method: PlanMethod,
        ) -> Result<Option<PairTable<'_>>> {
            Ok(None)
        }

        fn chunk_table(
            &self,
            chunk: &[(usize, usize)],
            windows: Range<usize>,
            method: PlanMethod,
        ) -> Result<TransposedCorrs> {
            self.0.chunk_table(chunk, windows, method)
        }
    }

    #[test]
    fn parallel_exact_matches_baseline_via_memory_store() {
        let c = small_collection();
        let b = 50;
        let sketch = SketchSet::build(&c, b).unwrap();
        let eng = engine(4, SketchMethod::Exact);
        let (matrix, qreport) = eng
            .query(&sketch, 0..sketch.window_count(), QueryMethod::Exact)
            .unwrap();
        assert_eq!(qreport.pairs, c.pair_count());
        let query = QueryWindow::new(599, 600).unwrap();
        let direct = baseline::correlation_matrix(&c, query).unwrap();
        assert!(
            matrix.max_abs_diff(&direct) < 1e-9,
            "diff {}",
            matrix.max_abs_diff(&direct)
        );
    }

    #[test]
    fn parallel_exact_matches_baseline_via_disk_store() {
        let c = small_collection();
        let b = 60;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(3, SketchMethod::Exact);
        let stored = sketch_pile(&eng, &c, b, "baseline");
        assert!(stored.pile.space_bytes() > 0);
        let (matrix, report) = eng
            .query(&stored.pile, 0..layout.n_windows, QueryMethod::Exact)
            .unwrap();
        assert_eq!(report.pairs, c.pair_count());
        let query = QueryWindow::new(599, 600).unwrap();
        let direct = baseline::correlation_matrix(&c, query).unwrap();
        assert!(matrix.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn parallel_dft_sketch_matches_serial_dft_sketch() {
        let c = small_collection();
        let b = 50;
        let coeff = 20;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(
            4,
            SketchMethod::Dft {
                coefficients: coeff,
            },
        );
        let stored = sketch_pile(&eng, &c, b, "dft-serial");
        // The DFT sketch stores estimates only: no correlation table.
        assert_eq!(stored.pile.exact_query_windows(), 0);
        assert_eq!(stored.pile.approx_query_windows(), layout.n_windows);

        let serial = DftSketchSet::build(&c, b, coeff, Transform::Naive).unwrap();
        let ests = stored
            .pile
            .pair_table(0..layout.n_windows, SegmentKind::PairEsts)
            .unwrap();
        for (p, (i, j)) in c.pairs().enumerate() {
            let expected = serial.pair_distances(i, j).unwrap();
            for (w, d) in expected.iter().enumerate() {
                let est = ests.view().window_row(w)[p];
                assert!((est - (1.0 - d * d / 2.0)).abs() < 1e-9);
            }
        }

        // Approximate query over the stored estimates equals the serial
        // Equation 5 path.
        let (matrix, _) = eng
            .query(&stored.pile, 0..layout.n_windows, QueryMethod::Approximate)
            .unwrap();
        let serial_matrix = tsubasa_dft::approx::approximate_correlation_matrix(
            &serial,
            0..layout.n_windows,
            tsubasa_dft::approx::ApproxStrategy::Equation5,
        )
        .unwrap();
        assert!(matrix.max_abs_diff(&serial_matrix) < 1e-9);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let c = small_collection();
        let b = 100;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let mut matrices = Vec::new();
        for workers in [1, 2, 5] {
            let eng = engine(workers, SketchMethod::Exact);
            let stored = sketch_pile(&eng, &c, b, &format!("workers-{workers}"));
            let (m, report) = eng
                .query(&stored.pile, 0..layout.n_windows, QueryMethod::Exact)
                .unwrap();
            assert_eq!(report.workers, workers);
            matrices.push(m);
        }
        assert!(matrices[0].max_abs_diff(&matrices[1]) < 1e-12);
        assert!(matrices[1].max_abs_diff(&matrices[2]) < 1e-12);
    }

    #[test]
    fn engine_pool_is_reused_across_repeated_queries() {
        let c = small_collection();
        let b = 100;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(3, SketchMethod::Exact);
        assert_eq!(eng.pool().size(), 3);
        let stored = sketch_pile(&eng, &c, b, "pool");
        // Repeated queries run on the same pool threads and agree exactly.
        let (first, _) = eng
            .query(&stored.pile, 0..layout.n_windows, QueryMethod::Exact)
            .unwrap();
        for _ in 0..3 {
            let (again, report) = eng
                .query(&stored.pile, 0..layout.n_windows, QueryMethod::Exact)
                .unwrap();
            assert_eq!(first, again);
            assert_eq!(report.workers, 3);
        }
    }

    #[test]
    fn network_from_store_matches_dense_threshold() {
        let c = small_collection();
        let b = 50;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(3, SketchMethod::Exact);
        let stored = sketch_pile(&eng, &c, b, "network");
        let pile = &stored.pile;
        let (dense, _) = eng
            .query(pile, 0..layout.n_windows, QueryMethod::Exact)
            .unwrap();
        for theta in [-0.2, 0.0, 0.4, 0.85] {
            let (streamed, report) = eng
                .network(pile, 0..layout.n_windows, QueryMethod::Exact, theta)
                .unwrap();
            assert_eq!(report.pairs, c.pair_count());
            assert_eq!(
                streamed.to_adjacency(),
                dense.threshold(theta).unwrap(),
                "theta={theta}"
            );
            assert_eq!(streamed.nan_pair_count(), 0);
        }
        assert!(eng
            .network(pile, 0..layout.n_windows, QueryMethod::Exact, 1.5)
            .is_err());
    }

    #[test]
    fn approximate_network_from_store_matches_dense_and_prunes_reads() {
        let c = small_collection();
        let b = 60;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(2, SketchMethod::Dft { coefficients: 10 });
        let stored = sketch_pile(&eng, &c, b, "approx-network");
        let pile = &stored.pile;
        let (dense, _) = eng
            .query(pile, 0..layout.n_windows, QueryMethod::Approximate)
            .unwrap();
        for theta in [0.0, 0.5, 0.99] {
            let (streamed, _) = eng
                .network(pile, 0..layout.n_windows, QueryMethod::Approximate, theta)
                .unwrap();
            // Chunk pruning may skip reads, never edges: the edge set equals
            // the dense strict threshold exactly.
            assert_eq!(
                streamed.to_adjacency(),
                dense.threshold(theta).unwrap(),
                "theta={theta}"
            );
        }
    }

    #[test]
    fn top_k_from_store_matches_sorted_dense() {
        let c = small_collection();
        let b = 50;
        let n = c.len();
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(4, SketchMethod::Exact);
        let stored = sketch_pile(&eng, &c, b, "top-k");
        let pile = &stored.pile;
        let (dense, _) = eng
            .query(pile, 0..layout.n_windows, QueryMethod::Exact)
            .unwrap();
        let mut all: Vec<(usize, usize, f64)> = dense.iter_pairs().collect();
        all.sort_by(|x, y| {
            y.2.total_cmp(&x.2)
                .then_with(|| pair_index(x.0, x.1, n).cmp(&pair_index(y.0, y.1, n)))
        });
        for k in [0, 1, 7, 45, 100] {
            let (top, _) = eng
                .top_k(pile, 0..layout.n_windows, QueryMethod::Exact, k)
                .unwrap();
            assert_eq!(top.edges.len(), k.min(all.len()), "k={k}");
            for (got, want) in top.edges.iter().zip(&all) {
                assert_eq!((got.i, got.j), (want.0, want.1), "k={k}");
                assert_eq!(got.corr, want.2, "k={k}");
            }
        }
    }

    #[test]
    fn method_mismatched_pile_is_rejected_not_silent() {
        // Sketch with the DFT method, query with Exact: the pile holds no
        // correlation table, so every query kind is a typed mismatch instead
        // of a plausible-looking answer recombined from missing windows.
        let c = small_collection();
        let b = 60;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(2, SketchMethod::Dft { coefficients: 10 });
        let stored = sketch_pile(&eng, &c, b, "mismatch");
        let pile = &stored.pile;
        let all = 0..layout.n_windows;
        assert!(eng.query(pile, all.clone(), QueryMethod::Exact).is_err());
        assert!(eng
            .network(pile, all.clone(), QueryMethod::Exact, 0.5)
            .is_err());
        assert!(eng.top_k(pile, all.clone(), QueryMethod::Exact, 3).is_err());
        // The matched method on the same pile is clean.
        let (ok, _) = eng
            .network(pile, all, QueryMethod::Approximate, 0.5)
            .unwrap();
        assert_eq!(ok.nan_pair_count(), 0);
    }

    #[test]
    fn chunked_sweep_is_bit_identical_to_full_table_sweep() {
        let c = small_collection();
        let b = 60;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        for (method, qm) in [
            (SketchMethod::Exact, QueryMethod::Exact),
            (
                SketchMethod::Dft { coefficients: 10 },
                QueryMethod::Approximate,
            ),
        ] {
            let eng = engine(3, method);
            let stored = sketch_pile(&eng, &c, b, &format!("chunked-{qm:?}"));
            let full = &stored.pile;
            let chunked = ChunkedOnly(full);
            for windows in [0..layout.n_windows, 1..layout.n_windows - 1] {
                let (m_full, _) = eng.query(full, windows.clone(), qm).unwrap();
                let (m_chunked, _) = eng.query(&chunked, windows.clone(), qm).unwrap();
                assert_eq!(m_full, m_chunked, "{qm:?} {windows:?}");
                for theta in [0.0, 0.6] {
                    let (e_full, _) = eng.network(full, windows.clone(), qm, theta).unwrap();
                    let (e_chunked, _) = eng.network(&chunked, windows.clone(), qm, theta).unwrap();
                    assert_eq!(e_full.edges(), e_chunked.edges(), "{qm:?} θ={theta}");
                }
                let (t_full, _) = eng.top_k(full, windows.clone(), qm, 7).unwrap();
                let (t_chunked, _) = eng.top_k(&chunked, windows.clone(), qm, 7).unwrap();
                assert_eq!(t_full.edges, t_chunked.edges, "{qm:?} {windows:?}");
            }
        }
    }

    #[test]
    fn pruned_chunk_nan_audit_is_opt_in() {
        // Two groups: series 0–1 put all their variance *within* windows
        // (zero-mean oscillation, `s ≈ 1, t ≈ 0`), series 2–3 put it
        // *between* windows (staircase, `s ≈ 0, t ≈ 1`). A cross-group pair
        // then has Equation 4 bound `s_i s_j + t_i t_j ≈ 0`, so its chunk is
        // pruned before its table columns are read — and a NaN planted there
        // is invisible to the default audit.
        let len = 120;
        let b = 20;
        let c = SeriesCollection::from_rows(
            (0..4usize)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            if s < 2 {
                                (i as f64 * 0.9 + s as f64 * 0.3).sin()
                            } else {
                                (i / b) as f64 * 10.0 + ((i * (s + 7)) % 5) as f64 * 1e-3
                            }
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = ParallelEngine::new(ParallelConfig {
            workers: 2,
            batch_pairs: 1, // isolate every pair in its own chunk
            sketch_method: SketchMethod::Dft { coefficients: 10 },
            audit_pruned_chunks: false,
        });
        let clean = sketch_pile(&eng, &c, b, "prune-clean");

        // Plant NaN in every window of cross-group pair (0, 3).
        let planted = pair_index(0, 3, c.len());
        let poisoned = copy_pile(&clean.pile, SegmentKind::PairEsts, "prune-nan", |_, row| {
            row[planted] = f64::NAN
        });
        let pile = &poisoned.pile;

        let auditor = ParallelEngine::new(ParallelConfig {
            audit_pruned_chunks: true,
            ..eng.config()
        });
        // The full-table and chunked sweeps share the audit policy.
        for chunked in [false, true] {
            let source: &dyn CorrSource = if chunked { &ChunkedOnly(pile) } else { pile };
            let (silent, _) = eng
                .network(source, 0..layout.n_windows, QueryMethod::Approximate, 0.5)
                .unwrap();
            // The poisoned chunk was pruned before being read: the NaN goes
            // uncounted by default.
            assert_eq!(silent.nan_pair_count(), 0, "chunked={chunked}");

            let (audited, _) = auditor
                .network(source, 0..layout.n_windows, QueryMethod::Approximate, 0.5)
                .unwrap();
            assert_eq!(audited.nan_pair_count(), 1, "chunked={chunked}");
            // The audit changes accounting only, never the edge set.
            assert_eq!(audited.edges(), silent.edges(), "chunked={chunked}");
        }
    }

    #[test]
    fn query_rejects_bad_window_range() {
        let c = small_collection();
        let b = 100;
        let eng = engine(2, SketchMethod::Exact);
        let stored = sketch_pile(&eng, &c, b, "bad-range");
        assert!(eng.query(&stored.pile, 0..0, QueryMethod::Exact).is_err());
        assert!(eng.query(&stored.pile, 0..99, QueryMethod::Exact).is_err());
    }

    #[test]
    fn pile_query_is_bit_identical_to_memory_query() {
        // An in-memory twin built from the pile's own rows: the two backends
        // carry the same window values, so the mapped and in-memory query
        // paths must agree to the bit.
        let c = small_collection();
        let b = 50;
        let layout = ParallelEngine::layout_for(&c, b).unwrap();
        let eng = engine(3, SketchMethod::Exact);
        let stored = sketch_pile(&eng, &c, b, "agree-exact");
        let pile = &stored.pile;
        assert_eq!(pile.exact_query_windows(), layout.n_windows);

        let all = 0..layout.n_windows;
        let stats = pile.series_stats(all.clone()).unwrap();
        let table = pile
            .pair_table(all.clone(), SegmentKind::PairCorrs)
            .unwrap();
        let series = stats
            .into_iter()
            .enumerate()
            .map(|(series, windows)| tsubasa_core::SeriesSketch { series, windows })
            .collect();
        let pairs = c
            .pairs()
            .enumerate()
            .map(|(p, (a, b))| tsubasa_core::PairSketch {
                a,
                b,
                corrs: all.clone().map(|w| table.view().window_row(w)[p]).collect(),
            })
            .collect();
        let twin = SketchSet::from_parts(b, c.len(), series, pairs).unwrap();

        let (from_memory, _) = eng.query(&twin, all.clone(), QueryMethod::Exact).unwrap();
        let (from_pile, qreport) = eng.query(pile, all.clone(), QueryMethod::Exact).unwrap();
        assert_eq!(from_memory, from_pile);
        assert_eq!(qreport.pairs, c.pair_count());
        for theta in [0.0, 0.5] {
            let (e_memory, _) = eng
                .network(&twin, all.clone(), QueryMethod::Exact, theta)
                .unwrap();
            let (e_pile, _) = eng
                .network(pile, all.clone(), QueryMethod::Exact, theta)
                .unwrap();
            assert_eq!(e_pile.edges(), e_memory.edges(), "theta={theta}");
        }
        let (t_memory, _) = eng
            .top_k(&twin, all.clone(), QueryMethod::Exact, 17)
            .unwrap();
        let (t_pile, _) = eng.top_k(pile, all, QueryMethod::Exact, 17).unwrap();
        assert_eq!(t_pile.edges, t_memory.edges);
    }

    #[test]
    fn sketch_to_pile_rejects_mismatched_or_used_writers() {
        let c = small_collection();
        let path = temp_pile("reject");
        // Wrong shape.
        let writer = PileWriter::create(&path, 3, 50).unwrap();
        let eng = engine(2, SketchMethod::Exact);
        assert!(eng.sketch_to_pile(&c, 50, writer).is_err());
        // Non-empty writer.
        let mut writer = PileWriter::create(&path, c.len(), 50).unwrap();
        writer
            .append(SegmentKind::SeriesStats, &vec![0.0; c.len() * 3])
            .unwrap();
        assert!(eng.sketch_to_pile(&c, 50, writer).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ParallelConfig::default();
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.batch_pairs, DEFAULT_BATCH_PAIRS);
        assert_eq!(cfg.sketch_method, SketchMethod::Exact);
    }
}
