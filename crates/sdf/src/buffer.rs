//! Buffer-capacity analysis: minimal deadlock-free distributions and
//! throughput-constrained buffer sizing.
//!
//! SDF3 computes buffer distributions alongside the mapping (paper §5.1:
//! "SDF3 also verifies if such a mapping is deadlock free, calculates buffer
//! distributions, and predicts which throughput can be guaranteed"). The
//! algorithms here follow the same structure: capacities are modelled as
//! reverse channels ([`crate::transform::with_buffer_capacities`]), a
//! minimal live distribution is found by demand-driven growth from the
//! per-channel lower bound, and throughput targets are met by greedy growth
//! of the most profitable buffer.
//!
//! Greedy growth re-analyses the graph once per candidate channel per step,
//! which makes the throughput kernel the hot path of the whole sizing
//! search. Every analysis therefore goes through [`AnalysisCache`], which
//! memoizes [`ThroughputResult`]s by capacity vector (so
//! [`size_for_throughput`] and [`storage_throughput_pareto`] never analyse
//! the same distribution twice, even across calls when a cache is shared
//! through the `_with` variants); the kernel reuses its scratch
//! allocations between the analyses of one thread.

use std::collections::HashMap;

use crate::error::SdfError;
use crate::graph::{ActorId, ChannelId, SdfGraph};
use crate::ratio::{gcd, Ratio};
use crate::repetition::{repetition_vector, RepetitionVector};
use crate::state_space::{throughput, throughput_bounded, AnalysisOptions, ThroughputResult};

/// Per-channel lower bound for a deadlock-free capacity of a single channel
/// in isolation: `p + c - gcd(p, c)`, raised to the initial token count if
/// that is larger. (Self-edges keep their own token count.)
pub fn capacity_lower_bound(graph: &SdfGraph, id: ChannelId) -> u64 {
    let ch = graph.channel(id);
    let p = ch.production_rate();
    let c = ch.consumption_rate();
    let lb = p + c - gcd(p, c);
    lb.max(ch.initial_tokens())
}

/// Memoizes bounded throughput analyses of **one** graph by capacity
/// vector.
///
/// Greedy buffer growth walks a chain of capacity distributions and probes
/// one growth step per channel at every link; sharing a cache across
/// [`size_for_throughput_with`] and [`storage_throughput_pareto_with`]
/// calls on the same graph means no distribution is ever analysed twice.
/// Errors are memoized too (a saturating candidate stays saturating).
///
/// The cache does not track graph identity: create one cache per graph.
/// Analysis options *are* tracked — a call with different options than the
/// memoized entries invalidates the table, so stale results are never
/// returned.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    map: HashMap<Vec<u64>, Result<ThroughputResult, SdfError>>,
    /// Fingerprint of the options the memoized entries were computed with.
    opts_fingerprint: Option<(bool, usize, usize)>,
    hits: u64,
    misses: u64,
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Analyses `graph` bounded by `caps`, returning the memoized result
    /// when this distribution was seen before (with the same options).
    ///
    /// # Errors
    ///
    /// The (possibly memoized) errors of [`throughput_bounded`].
    pub fn analyse(
        &mut self,
        graph: &SdfGraph,
        caps: &[u64],
        opts: &AnalysisOptions,
    ) -> Result<ThroughputResult, SdfError> {
        self.check_options(opts);
        if let Some(r) = self.map.get(caps) {
            self.hits += 1;
            return r.clone();
        }
        let r = throughput_bounded(graph, caps, opts);
        self.misses += 1;
        self.map.insert(caps.to_vec(), r.clone());
        r
    }

    /// Drops memoized entries computed under different analysis options, so
    /// one cache can never serve a result from a mismatched configuration.
    fn check_options(&mut self, opts: &AnalysisOptions) {
        let fp = (
            opts.auto_concurrency,
            opts.max_states,
            opts.max_firings_per_instant,
        );
        if self.opts_fingerprint != Some(fp) {
            if self.opts_fingerprint.is_some() {
                self.map.clear();
            }
            self.opts_fingerprint = Some(fp);
        }
    }

    /// Number of analyses answered from the memo table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of analyses actually run.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of memoized distributions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Computes a minimal-ish deadlock-free buffer distribution.
///
/// Starting from every channel's isolated lower bound, the abstract
/// execution is run; when it stalls, the capacities blocking a pending actor
/// are grown by one rate step and the search repeats. The result is live but
/// not guaranteed globally minimal (finding the minimum is NP-hard); it
/// matches the demand-driven heuristic used in practice.
///
/// # Errors
///
/// * Consistency errors from [`repetition_vector`].
/// * [`SdfError::Deadlock`] if the *unbounded* graph already deadlocks
///   (no capacity assignment can help).
/// * [`SdfError::AnalysisLimit`] if growth does not converge.
pub fn minimal_live_capacities(graph: &SdfGraph) -> Result<Vec<u64>, SdfError> {
    // If the unbounded graph deadlocks, buffering is not the problem.
    crate::liveness::check_liveness(graph)?;

    let mut caps: Vec<u64> = graph
        .channels()
        .map(|(id, _)| capacity_lower_bound(graph, id))
        .collect();
    // Growth limit: generous multiple of the total iteration token traffic.
    let q = repetition_vector(graph)?;
    let limit: u64 = graph
        .channels()
        .map(|(_, c)| q.of(c.src()) * c.production_rate() + c.initial_tokens())
        .max()
        .unwrap_or(1)
        * 4
        + 16;

    for _ in 0..10_000 {
        match blocked_channels(graph, &q, &caps)? {
            None => return Ok(caps),
            Some(blocked) => {
                let mut grew = false;
                for cid in blocked {
                    let ch = graph.channel(cid);
                    let step = gcd(ch.production_rate(), ch.consumption_rate());
                    if caps[cid.0] + step <= limit {
                        caps[cid.0] += step;
                        grew = true;
                    }
                }
                if !grew {
                    return Err(SdfError::AnalysisLimit(
                        "buffer growth hit the safety limit without reaching liveness".into(),
                    ));
                }
            }
        }
    }
    Err(SdfError::AnalysisLimit(
        "buffer growth did not converge".into(),
    ))
}

/// Grows a live distribution until the bounded graph sustains `target`
/// iterations/cycle, greedily picking the channel whose growth helps most.
///
/// Returns the capacities and the throughput actually achieved.
///
/// Equivalent to [`size_for_throughput_with`] with a fresh cache.
///
/// # Errors
///
/// * Errors from [`minimal_live_capacities`] and the throughput analysis.
/// * [`SdfError::AnalysisLimit`] if the target is unreachable: growth stops
///   once no channel improves throughput (the graph's unbounded limit is
///   below the target) or the step budget is exhausted.
pub fn size_for_throughput(
    graph: &SdfGraph,
    target: Ratio,
    opts: &AnalysisOptions,
) -> Result<(Vec<u64>, ThroughputResult), SdfError> {
    size_for_throughput_with(graph, target, opts, &mut AnalysisCache::new())
}

/// [`size_for_throughput`] with a shared [`AnalysisCache`].
///
/// # Errors
///
/// See [`size_for_throughput`].
pub fn size_for_throughput_with(
    graph: &SdfGraph,
    target: Ratio,
    opts: &AnalysisOptions,
    cache: &mut AnalysisCache,
) -> Result<(Vec<u64>, ThroughputResult), SdfError> {
    let mut caps = minimal_live_capacities(graph)?;
    let mut current = cache.analyse(graph, &caps, opts)?;
    let mut budget = 64 * graph.channel_count().max(1);
    let candidates = growth_candidates(graph);

    while current.iterations_per_cycle < target {
        if budget == 0 {
            return Err(SdfError::AnalysisLimit(format!(
                "buffer sizing budget exhausted at throughput {}",
                current.iterations_per_cycle
            )));
        }
        budget -= 1;

        // Greedy: try one growth step on each channel, keep the best.
        let results = analyse_candidates(graph, &mut caps, &candidates, opts, cache);
        let mut best: Option<(usize, ThroughputResult)> = None;
        for (&(idx, _), r) in candidates.iter().zip(results) {
            let t = r?;
            let better = match &best {
                None => t.iterations_per_cycle > current.iterations_per_cycle,
                Some((_, bt)) => t.iterations_per_cycle > bt.iterations_per_cycle,
            };
            if better {
                best = Some((idx, t));
            }
        }
        match best {
            Some((idx, t)) => {
                let ch = graph.channel(ChannelId(idx));
                caps[idx] += gcd(ch.production_rate(), ch.consumption_rate());
                current = t;
            }
            None => {
                return Err(SdfError::AnalysisLimit(format!(
                    "throughput target {target} unreachable; saturated at {}",
                    current.iterations_per_cycle
                )));
            }
        }
    }
    Ok((caps, current))
}

/// Analyses the graph bounded by `caps`.
///
/// Uses the materialization-free bounded kernel
/// ([`throughput_bounded`]); the result is identical to
/// `throughput(&with_buffer_capacities(graph, caps)?, opts)`.
///
/// # Errors
///
/// See [`throughput_bounded`].
pub fn analyse(
    graph: &SdfGraph,
    caps: &[u64],
    opts: &AnalysisOptions,
) -> Result<ThroughputResult, SdfError> {
    throughput_bounded(graph, caps, opts)
}

/// The growth candidates of the greedy searches: `(channel index, step)`
/// for every non-self channel, in channel order.
fn growth_candidates(graph: &SdfGraph) -> Vec<(usize, u64)> {
    graph
        .channels()
        .filter(|(_, ch)| !ch.is_self_edge())
        .map(|(cid, ch)| (cid.0, gcd(ch.production_rate(), ch.consumption_rate())))
        .collect()
}

/// Analyses every candidate distribution `caps + step·e_idx` of one greedy
/// step through `cache`, returning results in candidate order.
fn analyse_candidates(
    graph: &SdfGraph,
    caps: &mut [u64],
    candidates: &[(usize, u64)],
    opts: &AnalysisOptions,
    cache: &mut AnalysisCache,
) -> Vec<Result<ThroughputResult, SdfError>> {
    candidates
        .iter()
        .map(|&(idx, step)| {
            caps[idx] += step;
            let r = cache.analyse(graph, caps, opts);
            caps[idx] -= step;
            r
        })
        .collect()
}

/// Runs the abstract iteration on the bounded graph; on stall, returns the
/// forward channels whose capacity blocks a pending actor (`Ok(None)` when
/// the iteration completes).
fn blocked_channels(
    graph: &SdfGraph,
    q: &RepetitionVector,
    caps: &[u64],
) -> Result<Option<Vec<ChannelId>>, SdfError> {
    let n = graph.actor_count();
    let mut fill: Vec<u64> = graph.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut remaining: Vec<u64> = (0..n).map(|i| q.of(ActorId(i))).collect();

    // An actor can fire if inputs are available *and* every non-self output
    // channel has spare capacity.
    let can_fire = |fill: &[u64], remaining: &[u64], a: usize| -> bool {
        if remaining[a] == 0 {
            return false;
        }
        let inputs_ok = graph
            .incoming(ActorId(a))
            .iter()
            .all(|&cid| fill[cid.0] >= graph.channel(cid).consumption_rate());
        let outputs_ok = graph.outgoing(ActorId(a)).iter().all(|&cid| {
            let ch = graph.channel(cid);
            if ch.is_self_edge() {
                return true;
            }
            fill[cid.0] + ch.production_rate() <= caps[cid.0]
        });
        inputs_ok && outputs_ok
    };

    loop {
        let mut fired = false;
        for a in 0..n {
            if can_fire(&fill, &remaining, a) {
                for &cid in graph.incoming(ActorId(a)) {
                    fill[cid.0] -= graph.channel(cid).consumption_rate();
                }
                for &cid in graph.outgoing(ActorId(a)) {
                    fill[cid.0] += graph.channel(cid).production_rate();
                }
                remaining[a] -= 1;
                fired = true;
            }
        }
        if remaining.iter().all(|&r| r == 0) {
            return Ok(None);
        }
        if !fired {
            // Collect output channels that are full for pending actors.
            let mut blocked = Vec::new();
            for (a, _) in remaining.iter().enumerate().filter(|&(_, &r)| r > 0) {
                for &cid in graph.outgoing(ActorId(a)) {
                    let ch = graph.channel(cid);
                    if !ch.is_self_edge() && fill[cid.0] + ch.production_rate() > caps[cid.0] {
                        blocked.push(cid);
                    }
                }
            }
            if blocked.is_empty() {
                // Stall is caused by inputs, not capacities: genuine deadlock
                // (should have been caught by the unbounded liveness check).
                return Err(SdfError::Deadlock(
                    "stall not attributable to buffer capacities".into(),
                ));
            }
            blocked.sort();
            blocked.dedup();
            return Ok(Some(blocked));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;
    use crate::transform::with_buffer_capacities;

    fn chain(p: u64, c: u64) -> SdfGraph {
        let mut b = SdfGraphBuilder::new("chain");
        let a = b.add_actor("A", 2);
        let d = b.add_actor("B", 3);
        b.add_channel("e", a, p, d, c);
        b.build().unwrap()
    }

    #[test]
    fn lower_bound_formula() {
        let g = chain(2, 3);
        assert_eq!(capacity_lower_bound(&g, ChannelId(0)), 4); // 2+3-1
        let g = chain(4, 4);
        assert_eq!(capacity_lower_bound(&g, ChannelId(0)), 4); // 4+4-4
    }

    #[test]
    fn lower_bound_respects_initial_tokens() {
        let mut b = SdfGraphBuilder::new("g");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel_with_tokens("e", a, 1, c, 1, 7);
        let g = b.build().unwrap();
        assert_eq!(capacity_lower_bound(&g, ChannelId(0)), 7);
    }

    #[test]
    fn minimal_capacities_are_live() {
        let g = chain(2, 3);
        let caps = minimal_live_capacities(&g).unwrap();
        let bounded = with_buffer_capacities(&g, &caps).unwrap();
        assert!(crate::liveness::check_liveness(&bounded).is_ok());
    }

    #[test]
    fn unit_rate_chain_needs_capacity_one() {
        let g = chain(1, 1);
        let caps = minimal_live_capacities(&g).unwrap();
        assert_eq!(caps, vec![1]);
    }

    #[test]
    fn deadlocked_graph_rejected() {
        let mut b = SdfGraphBuilder::new("dead");
        let a = b.add_actor("A", 1);
        let c = b.add_actor("B", 1);
        b.add_channel("f", a, 1, c, 1);
        b.add_channel("r", c, 1, a, 1);
        let g = b.build().unwrap();
        assert!(matches!(
            minimal_live_capacities(&g),
            Err(SdfError::Deadlock(_))
        ));
    }

    #[test]
    fn sizing_reaches_saturation_throughput() {
        // Unbounded bottleneck: B at 1/3. A buffer of 2 already decouples.
        let g = chain(1, 1);
        let (caps, t) =
            size_for_throughput(&g, Ratio::new(1, 3), &AnalysisOptions::default()).unwrap();
        assert_eq!(t.iterations_per_cycle, Ratio::new(1, 3));
        assert!(caps[0] >= 1);
    }

    #[test]
    fn unreachable_target_reported() {
        let g = chain(1, 1);
        let r = size_for_throughput(&g, Ratio::new(1, 2), &AnalysisOptions::default());
        assert!(matches!(r, Err(SdfError::AnalysisLimit(_))));
    }

    #[test]
    fn larger_target_needs_no_smaller_buffers() {
        let g = chain(2, 3);
        let (caps_low, _) =
            size_for_throughput(&g, Ratio::new(1, 100), &AnalysisOptions::default()).unwrap();
        let (caps_high, _) =
            size_for_throughput(&g, Ratio::new(1, 9), &AnalysisOptions::default()).unwrap();
        let total_low: u64 = caps_low.iter().sum();
        let total_high: u64 = caps_high.iter().sum();
        assert!(total_high >= total_low);
    }

    #[test]
    fn multirate_cycle_with_state_edge() {
        let mut b = SdfGraphBuilder::new("mrc");
        let a = b.add_actor("A", 4);
        let c = b.add_actor("B", 1);
        b.add_channel("e", a, 3, c, 2);
        b.add_channel_with_tokens("sa", a, 1, a, 1, 1);
        let g = b.build().unwrap();
        let caps = minimal_live_capacities(&g).unwrap();
        let bounded = with_buffer_capacities(&g, &caps).unwrap();
        assert!(throughput(&bounded, &AnalysisOptions::default()).is_ok());
    }

    #[test]
    fn cache_memoizes_repeated_distributions() {
        let g = chain(2, 3);
        let mut cache = AnalysisCache::new();
        let opts = AnalysisOptions::default();
        let a1 = cache.analyse(&g, &[5], &opts).unwrap();
        let a2 = cache.analyse(&g, &[5], &opts).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_cache_spans_sizing_and_pareto() {
        let g = chain(2, 3);
        let opts = AnalysisOptions::default();
        let mut cache = AnalysisCache::new();
        // 1/6 is the saturation throughput of the chain, so sizing and the
        // pareto walk stop at the same link of the greedy chain.
        let (caps, t) = size_for_throughput_with(&g, Ratio::new(1, 6), &opts, &mut cache).unwrap();
        let analyses_after_sizing = cache.misses();
        // The pareto walk revisits the same greedy chain: mostly cache hits.
        let points = storage_throughput_pareto_with(&g, &opts, 32, &mut cache).unwrap();
        assert!(cache.hits() > 0, "pareto should reuse sizing analyses");
        assert!(cache.misses() >= analyses_after_sizing);
        // Both searches agree on the saturation point.
        assert_eq!(points.last().unwrap().throughput, t.iterations_per_cycle);
        assert_eq!(points.last().unwrap().capacities, caps);
    }

    #[test]
    fn cache_invalidates_on_option_change() {
        let g = chain(2, 3);
        let mut cache = AnalysisCache::new();
        let a = cache
            .analyse(&g, &[6], &AnalysisOptions::default())
            .unwrap();
        // Same capacities, different options: must re-analyse, not serve
        // the memoized default-options result.
        let auto = AnalysisOptions {
            auto_concurrency: true,
            ..AnalysisOptions::default()
        };
        let b = cache.analyse(&g, &[6], &auto).unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(a, analyse(&g, &[6], &AnalysisOptions::default()).unwrap());
        assert_eq!(b, analyse(&g, &[6], &auto).unwrap());
    }
}

/// A point of the storage/throughput trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePoint {
    /// Buffer capacities per channel.
    pub capacities: Vec<u64>,
    /// Total storage in tokens.
    pub total_tokens: u64,
    /// Throughput achieved with these capacities.
    pub throughput: Ratio,
}

/// Explores the storage/throughput Pareto space (SDF3's storage-throughput
/// trade-off, paper §5.1: "calculates buffer distributions"): starting from
/// the minimal live distribution, repeatedly grows the most profitable
/// buffer and records every point where the throughput strictly improves,
/// until the unbounded throughput is reached or growth saturates.
///
/// The returned points are Pareto-optimal within the explored (greedy)
/// chain: strictly increasing in both storage and throughput.
///
/// Equivalent to [`storage_throughput_pareto_with`] with a fresh cache.
///
/// # Errors
///
/// Propagates liveness/analysis errors.
pub fn storage_throughput_pareto(
    graph: &SdfGraph,
    opts: &AnalysisOptions,
    max_steps: usize,
) -> Result<Vec<StoragePoint>, SdfError> {
    storage_throughput_pareto_with(graph, opts, max_steps, &mut AnalysisCache::new())
}

/// [`storage_throughput_pareto`] with a shared [`AnalysisCache`].
///
/// # Errors
///
/// See [`storage_throughput_pareto`].
pub fn storage_throughput_pareto_with(
    graph: &SdfGraph,
    opts: &AnalysisOptions,
    max_steps: usize,
    cache: &mut AnalysisCache,
) -> Result<Vec<StoragePoint>, SdfError> {
    let unbounded = throughput(graph, opts)?.iterations_per_cycle;
    let mut caps = minimal_live_capacities(graph)?;
    let mut current = cache.analyse(graph, &caps, opts)?;
    let mut points = vec![StoragePoint {
        capacities: caps.clone(),
        total_tokens: caps.iter().sum(),
        throughput: current.iterations_per_cycle,
    }];
    let candidates = growth_candidates(graph);

    for _ in 0..max_steps {
        if current.iterations_per_cycle >= unbounded {
            break;
        }
        // Greedy: the single growth step with the best gain. Analysis
        // errors disqualify a candidate, matching the sequential search.
        let results = analyse_candidates(graph, &mut caps, &candidates, opts, cache);
        let mut best: Option<(usize, ThroughputResult)> = None;
        for (&(idx, _), r) in candidates.iter().zip(results) {
            if let Ok(t) = r {
                let better = match &best {
                    None => t.iterations_per_cycle > current.iterations_per_cycle,
                    Some((_, bt)) => t.iterations_per_cycle > bt.iterations_per_cycle,
                };
                if better {
                    best = Some((idx, t));
                }
            }
        }
        match best {
            Some((idx, t)) => {
                let ch = graph.channel(ChannelId(idx));
                caps[idx] += gcd(ch.production_rate(), ch.consumption_rate());
                current = t;
                points.push(StoragePoint {
                    capacities: caps.clone(),
                    total_tokens: caps.iter().sum(),
                    throughput: current.iterations_per_cycle,
                });
            }
            None => break, // saturated below the unbounded limit
        }
    }
    Ok(points)
}

#[cfg(test)]
mod pareto_tests {
    use super::*;
    use crate::graph::SdfGraphBuilder;

    fn chain() -> SdfGraph {
        let mut b = SdfGraphBuilder::new("p");
        let a = b.add_actor("A", 2);
        let d = b.add_actor("B", 3);
        b.add_channel("e", a, 2, d, 3);
        b.build().unwrap()
    }

    #[test]
    fn pareto_points_strictly_improve() {
        let points = storage_throughput_pareto(&chain(), &AnalysisOptions::default(), 32).unwrap();
        assert!(points.len() >= 2, "expected a non-trivial trade-off");
        for w in points.windows(2) {
            assert!(w[1].total_tokens > w[0].total_tokens);
            assert!(w[1].throughput > w[0].throughput);
        }
    }

    #[test]
    fn pareto_reaches_the_unbounded_limit() {
        let g = chain();
        let unbounded = throughput(&g, &AnalysisOptions::default()).unwrap();
        let points = storage_throughput_pareto(&g, &AnalysisOptions::default(), 64).unwrap();
        assert_eq!(
            points.last().unwrap().throughput,
            unbounded.iterations_per_cycle,
            "the chain should saturate at the unbounded throughput"
        );
    }

    #[test]
    fn first_point_is_minimal_live() {
        let g = chain();
        let min = minimal_live_capacities(&g).unwrap();
        let points = storage_throughput_pareto(&g, &AnalysisOptions::default(), 8).unwrap();
        assert_eq!(points[0].capacities, min);
    }
}
