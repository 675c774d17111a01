//! In-memory span tracer and the bench-side wrappers that time the calls
//! into each layer from outside the library.
//!
//! A span records its layer, start, end, parent span and query id. Spans
//! of one thread nest, so a layer's self time is its duration minus the
//! durations of its direct children. Spans stay in memory and are written
//! out once, when the benchmark ends.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use gprq_core::ProbabilityEvaluator;
use gprq_gaussian::cloud::CloudStats;
use gprq_gaussian::Gaussian;
use gprq_linalg::Vector;
use gprq_rtree::{Phase1Index, Rect, SearchStats};

/// The layer boundaries the benchmark times. Names follow the crates and
/// modules the timed call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PrqQuery::new` (gprq-linalg Cholesky and eigen decomposition).
    QueryNew,
    /// `pseudo_feedback_covariance` (Eq. 35).
    FeedbackSigma,
    /// `RTree::nearest_neighbors`.
    Knn,
    /// `PrqExecutor::execute`; its self time is planning and filtering.
    Execute,
    /// `Phase1Index::search_rect_into` / `search_rects_into`.
    Search,
    /// Evaluator construction.
    EvalNew,
    /// `ProbabilityEvaluator::begin_query` (the cloud build).
    EvalBegin,
    /// `ProbabilityEvaluator::probability`.
    EvalProbability,
    /// Evaluator drop (frees the cloud).
    EvalDrop,
    /// `QueryBatch::execute`; its self time is the batch layer.
    BatchExecute,
    /// One tick's `RTree::remove` + `RTree::insert` moves.
    Update,
}

impl Layer {
    /// Number of layers (`Update` is the last).
    pub const COUNT: usize = Layer::Update as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Layer::QueryNew => "plan.query_new",
            Layer::FeedbackSigma => "plan.feedback_sigma",
            Layer::Knn => "rtree.knn",
            Layer::Execute => "core.execute",
            Layer::Search => "rtree.search",
            Layer::EvalNew => "eval.new",
            Layer::EvalBegin => "eval.begin_query",
            Layer::EvalProbability => "eval.probability",
            Layer::EvalDrop => "eval.drop",
            Layer::BatchExecute => "batch.execute",
            Layer::Update => "rtree.update",
        }
    }

    /// Position of the layer in per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    query: u32,
}

/// Counts the wrappers make themselves, cross-checked against the
/// `QueryStats` each call returns.
#[derive(Debug, Default, Clone, Copy)]
pub struct WrapperCounts {
    /// `search_rect_into` calls plus rectangles passed to
    /// `search_rects_into`: one per query.
    pub searches: u64,
    pub node_visits: u64,
    pub entries_checked: u64,
    pub candidates: u64,
    pub begin_queries: u64,
    pub probabilities: u64,
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<u32>,
    query: Cell<u32>,
    counts: Cell<WrapperCounts>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut spans = self.tracer.spans.borrow_mut();
        let span = &mut spans[self.index as usize];
        span.end_ns = end;
        self.tracer.current.set(span.parent);
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            current: Cell::new(NO_PARENT),
            query: Cell::new(0),
            counts: Cell::new(WrapperCounts::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the query id stamped on spans opened from now on.
    pub fn set_query(&self, query: u32) {
        self.query.set(query);
    }

    /// Opens a span of `layer` as a child of the innermost open span.
    pub fn span(&self, layer: Layer) -> SpanGuard<'_> {
        let mut spans = self.spans.borrow_mut();
        let index = spans.len() as u32;
        spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.current.get(),
            query: self.query.get(),
        });
        self.current.set(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    pub fn counts(&self) -> WrapperCounts {
        self.counts.get()
    }

    fn count(&self, f: impl FnOnce(&mut WrapperCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// Total self time (ns) and span count per layer, indexed by
    /// [`Layer::index`].
    pub fn self_times(&self) -> [(u64, u64); Layer::COUNT] {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out = [(0u64, 0u64); Layer::COUNT];
        for (span, children) in spans.iter().zip(&child_ns) {
            let slot = &mut out[span.layer.index()];
            slot.0 += (span.end_ns - span.start_ns).saturating_sub(*children);
            slot.1 += 1;
        }
        out
    }

    /// Total inclusive time (ns) of every span of `layer`.
    pub fn inclusive_ns(&self, layer: Layer) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent query` (`parent` is `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tquery")?;
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.query
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span of `layer` when tracing, bare otherwise.
pub fn timed<R>(tracer: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => {
            let _span = t.span(layer);
            f()
        }
        None => f(),
    }
}

/// Bench-side `Phase1Index`: times and counts every index search.
pub struct TracedIndex<'a, I> {
    inner: &'a I,
    tracer: &'a Tracer,
}

impl<'a, I> TracedIndex<'a, I> {
    pub fn new(inner: &'a I, tracer: &'a Tracer) -> Self {
        TracedIndex { inner, tracer }
    }

    /// Counts `rects` searches, their candidates, and the node visits and
    /// entries checked they added to `after` (search statistics
    /// accumulate into the caller's `SearchStats`).
    fn record(
        &self,
        rects: usize,
        after: &[SearchStats],
        before: &[SearchStats],
        candidates: usize,
    ) {
        self.tracer.count(|c| {
            c.searches += rects as u64;
            c.candidates += candidates as u64;
            for (a, b) in after.iter().zip(before) {
                c.node_visits += (a.nodes_visited - b.nodes_visited) as u64;
                c.entries_checked += (a.entries_checked - b.entries_checked) as u64;
            }
        });
    }
}

impl<const D: usize, T, I: Phase1Index<D, T>> Phase1Index<D, T> for TracedIndex<'_, I> {
    fn search_rect_into<'t>(
        &'t self,
        rect: &Rect<D>,
        stats: &mut SearchStats,
        out: &mut Vec<(&'t Vector<D>, &'t T)>,
    ) {
        let before = *stats;
        {
            let _span = self.tracer.span(Layer::Search);
            self.inner.search_rect_into(rect, stats, out);
        }
        self.record(1, &[*stats], &[before], out.len());
    }

    fn search_rects_into<'t>(
        &'t self,
        rects: &[Rect<D>],
        stats: &mut [SearchStats],
        out: &mut [Vec<(&'t Vector<D>, &'t T)>],
    ) {
        let before: Vec<SearchStats> = stats.to_vec();
        {
            let _span = self.tracer.span(Layer::Search);
            self.inner.search_rects_into(rects, stats, out);
        }
        let n = rects.len().min(stats.len()).min(out.len());
        let candidates = out[..n].iter().map(Vec::len).sum();
        self.record(n, &stats[..n], &before[..n], candidates);
    }
}

/// Bench-side `ProbabilityEvaluator`: times construction, `begin_query`,
/// every `probability` call and the drop of the evaluator it owns.
pub struct TracedEval<'a, E> {
    inner: Option<E>,
    tracer: &'a Tracer,
}

impl<'a, E> TracedEval<'a, E> {
    pub fn new(tracer: &'a Tracer, make: impl FnOnce() -> E) -> Self {
        let inner = {
            let _span = tracer.span(Layer::EvalNew);
            make()
        };
        TracedEval {
            inner: Some(inner),
            tracer,
        }
    }

    fn inner(&mut self) -> &mut E {
        self.inner
            .as_mut()
            .expect("the evaluator is only taken in drop")
    }
}

impl<E> Drop for TracedEval<'_, E> {
    fn drop(&mut self) {
        let _span = self.tracer.span(Layer::EvalDrop);
        drop(self.inner.take());
    }
}

impl<const D: usize, E: ProbabilityEvaluator<D>> ProbabilityEvaluator<D> for TracedEval<'_, E> {
    fn begin_query(&mut self, gaussian: &Gaussian<D>) {
        self.tracer.count(|c| c.begin_queries += 1);
        let tracer = self.tracer;
        let _span = tracer.span(Layer::EvalBegin);
        self.inner().begin_query(gaussian);
    }

    fn probability(&mut self, gaussian: &Gaussian<D>, center: &Vector<D>, delta: f64) -> f64 {
        self.tracer.count(|c| c.probabilities += 1);
        let tracer = self.tracer;
        let _span = tracer.span(Layer::EvalProbability);
        self.inner().probability(gaussian, center, delta)
    }

    fn take_cloud_stats(&mut self) -> CloudStats {
        self.inner().take_cloud_stats()
    }
}
