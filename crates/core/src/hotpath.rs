//! The batch-vectorized record hot path.
//!
//! Splits record processing out of [`crate::worker::SlashWorker`] so the
//! same loop the simulator charges virtual costs for can also be driven
//! raw by the wall-clock harness (`hotpath-bench`). Two data-path
//! optimizations live here:
//!
//! * **Write-combining pre-aggregation** — an L1-resident
//!   [`WriteCombiner`] folds a batch's updates into per-key partials and
//!   flushes once per batch via [`SsbNode::rmw_batch`], collapsing N
//!   index probes into one per *distinct* key per batch. Enabled only for
//!   states whose CRDT merge is exactly associative
//!   ([`slash_state::StateDescriptor::combinable`]); float-summing
//!   aggregations keep the per-record path so results stay bit-identical.
//! * **Batched appends** — join retention batches a whole input chunk's
//!   elements into one [`SsbNode::append_batch`] call, memoizing hashes
//!   and chain heads per distinct key.
//!
//! Both optimizations are **adaptive**: when a streak of batches shows
//! (almost) no key reuse — wide uniform key domains, where dedup is pure
//! overhead — the hot path reverts to the per-record loop for the rest of
//! the run. To keep the worst case cheap, the *first* combined batch also
//! probes reuse in-flight (`PROBE_SURVIVORS`) and can bail mid-batch,
//! so a reuse-free stream never pays combiner overhead beyond a small
//! prefix. Every decision depends only on the data, so runs stay
//! deterministic, and both paths produce bit-identical state either way.
//!
//! The hot path does *no* metrics or cost accounting — it returns a
//! [`BatchOutcome`] and the worker converts that into vectorized charges
//! (one `instr`/`charge` call per batch instead of per record).

use std::rc::Rc;

use slash_state::backend::SsbNode;
use slash_state::{pack_key, StateKey, WriteCombiner};

use crate::query::QueryPlan;
use crate::window::WindowMemo;

/// What one batch did, for vectorized cost accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOutcome {
    /// Records scanned (pipeline cost applies to all of them).
    pub records: u64,
    /// Records that survived the filter and touched state.
    pub survivors: u64,
    /// Distinct-key partials flushed from the combiner into the SSB
    /// (zero when the combiner is off; then survivors hit the SSB
    /// directly).
    pub flushed: u64,
    /// State value bytes written (join element payloads).
    pub value_bytes: u64,
    /// Timestamp of the last record scanned (timestamps are monotone
    /// per flow, so this is the batch's high-water mark).
    pub last_ts: u64,
}

impl BatchOutcome {
    /// Record the batch-level facts that don't need the per-record loop:
    /// the record count and the last record's timestamp. Hoisting these
    /// keeps the loops free of per-record bookkeeping stores.
    #[inline]
    fn note_batch(&mut self, schema: &crate::record::RecordSchema, batch: &[u8]) {
        let n = batch.len() / schema.size;
        self.records = n as u64;
        if n > 0 {
            self.last_ts = schema.ts(&batch[(n - 1) * schema.size..]);
        }
    }
}

/// Batches with too little key reuse before the hot path concludes
/// batching cannot pay and reverts to the per-record loop for the rest of
/// the run. Purely data-driven, so runs stay deterministic.
const COLD_BATCH_LIMIT: u32 = 1;
/// "Too little reuse": distinct keys ≥ 1/2 of survivors. Wall-clock
/// breakeven sits near 50% reuse — below it, the dedup pass costs more
/// than the saved index probes.
const COLD_NUM: u64 = 1;
const COLD_DEN: u64 = 2;
/// Batches smaller than this don't update the cold counter (too noisy).
const MIN_ADAPT_SURVIVORS: u64 = 64;
/// In the *first* combined batch, measure key reuse after this many
/// survivors and bail out mid-batch if the stream looks reuse-free. The
/// end-of-batch `note_reuse` check alone engages one full batch too late:
/// with 16 Ki-record batches a uniform-key stream pays combiner overhead
/// for thousands of folds before the first verdict, which showed up as a
/// ~7% regression on `ysb`. The probe caps that exposure at
/// [`PROBE_SURVIVORS`] folds for the whole run (≲2% of even a single
/// batch's survivors on the benched configurations).
const PROBE_SURVIVORS: u64 = 1024;
/// Probe verdict: bail when distinct keys so far ≥ 3/4 of survivors.
/// Stricter than the end-of-batch 1/2 on purpose — at 1024 survivors the
/// sample is small, and skewed streams (nb7's Pareto, ysb_hot's 100-key
/// domain) must not be misjudged from an unlucky prefix; both sit far
/// below 3/4 while uniform `ysb` saturates at ~100% distinct.
const PROBE_NUM: u64 = 3;
const PROBE_DEN: u64 = 4;

/// Reusable per-worker record-processing state.
pub struct HotPath {
    plan: Rc<QueryPlan>,
    /// `Some` iff this plan is a combinable aggregation and combining is
    /// enabled.
    combiner: Option<WriteCombiner>,
    /// Batch the join append path (always safe — byte-identical log).
    batch_join: bool,
    /// Scratch: record-order keys for `append_batch`.
    join_keys: Vec<StateKey>,
    /// Scratch: packed join elements, `1 + take` bytes each.
    join_elems: Vec<u8>,
    /// Consecutive batches with (almost) no key reuse; at
    /// [`COLD_BATCH_LIMIT`] the batched path turns itself off.
    cold_batches: u32,
    /// Whether the one-shot in-batch reuse probe has run (first combined
    /// batch only; see [`PROBE_SURVIVORS`]).
    probed: bool,
    /// Division-free window assignment (timestamps are monotone per flow).
    memo: WindowMemo,
    /// Split-ledger version this worker's salt map was built from; `0`
    /// (the ledger's "never split" value) keeps the refresh to a single
    /// compare per batch on unsplit runs.
    split_version: u64,
    /// `(canonical key, this node's sub-key)` pairs, ascending by
    /// canonical — binary-searched per record only when non-empty.
    split_map: Vec<(u64, u64)>,
}

/// Map a group key through the salt map: split keys divert to this
/// replica's sub-key, everything else passes through untouched.
#[inline]
fn salt(map: &[(u64, u64)], gk: u64) -> u64 {
    if map.is_empty() {
        return gk;
    }
    match map.binary_search_by_key(&gk, |p| p.0) {
        Ok(i) => map[i].1,
        Err(_) => gk,
    }
}

impl HotPath {
    /// Build the hot path for a plan. `combine` gates both optimizations;
    /// the combiner additionally requires the aggregation's CRDT to be
    /// exactly associative under regrouping.
    pub fn new(plan: Rc<QueryPlan>, combine: bool, combiner_slots: usize) -> Self {
        let combiner = match &*plan {
            QueryPlan::Aggregate { agg, .. } if combine => {
                let desc = agg.descriptor();
                if desc.combinable && !desc.is_appended() {
                    Some(WriteCombiner::new(desc, combiner_slots))
                } else {
                    None
                }
            }
            _ => None,
        };
        let batch_join = combine && matches!(&*plan, QueryPlan::Join { .. });
        let memo = WindowMemo::new(plan.window());
        HotPath {
            plan,
            combiner,
            batch_join,
            join_keys: Vec::new(),
            join_elems: Vec::new(),
            cold_batches: 0,
            probed: false,
            memo,
            split_version: 0,
            split_map: Vec::new(),
        }
    }

    /// Track key reuse: `unique` distinct keys out of `survivors` state
    /// touches this batch. A streak of reuse-free batches disables the
    /// batched path — on wide uniform key domains the dedup work is pure
    /// overhead, and these workloads' distributions are stationary.
    fn note_reuse(&mut self, survivors: u64, unique: u64) {
        if survivors < MIN_ADAPT_SURVIVORS {
            return;
        }
        if unique * COLD_DEN >= survivors * COLD_NUM {
            self.cold_batches += 1;
        } else {
            self.cold_batches = 0;
        }
    }

    /// Whether the write combiner is active for this plan.
    pub fn combined(&self) -> bool {
        self.combiner.is_some()
    }

    /// Process one batch of raw records against `ssb`.
    pub fn process(&mut self, ssb: &mut SsbNode, batch: &[u8]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        match &*self.plan {
            QueryPlan::Aggregate {
                input,
                window: _,
                agg,
            } => {
                let schema = input.schema;
                // Hot-key splitting: refresh the salt map when the node's
                // ledger changed (one compare per batch; unsplit runs stay
                // at version 0 forever and never allocate).
                if ssb.split_version() != self.split_version {
                    self.split_version = ssb.split_version();
                    self.split_map = ssb.split_pairs();
                }
                let memo = &mut self.memo;
                out.note_batch(&schema, batch);
                if self.cold_batches >= COLD_BATCH_LIMIT {
                    self.combiner = None;
                }
                if let Some(comb) = self.combiner.as_mut() {
                    // Byte offset to resume from if the in-batch probe
                    // bails to the per-record loop mid-batch.
                    let mut bail_at: Option<usize> = None;
                    for (i, rec) in batch.chunks_exact(schema.size).enumerate() {
                        if !input.keep(rec) {
                            continue;
                        }
                        let key = pack_key(
                            memo.assign(schema.ts(rec)),
                            salt(&self.split_map, schema.key(rec)),
                        );
                        if !comb.fold(key, |v| agg.update(&schema, rec, v)) {
                            // Table at its fill limit: drain it and retry —
                            // the retry always lands (table now empty).
                            out.flushed += ssb.rmw_batch(comb);
                            comb.fold(key, |v| agg.update(&schema, rec, v));
                        }
                        out.survivors += 1;
                        if !self.probed && out.survivors == PROBE_SURVIVORS {
                            // One-shot reuse probe: distinct keys seen so
                            // far are the already-flushed partials plus the
                            // table's current occupancy.
                            self.probed = true;
                            let distinct = out.flushed + comb.len() as u64;
                            if distinct * PROBE_DEN >= out.survivors * PROBE_NUM {
                                out.flushed += ssb.rmw_batch(comb);
                                bail_at = Some((i + 1) * schema.size);
                                break;
                            }
                        }
                    }
                    if bail_at.is_none() {
                        out.flushed += ssb.rmw_batch(comb);
                    }
                    if let Some(off) = bail_at {
                        // Reuse-free stream: finish this batch (and the
                        // rest of the run) on the per-record path. State
                        // stays bit-identical — the flush above already
                        // applied every folded partial.
                        self.combiner = None;
                        for rec in batch[off..].chunks_exact(schema.size) {
                            if !input.keep(rec) {
                                continue;
                            }
                            let key = pack_key(
                                memo.assign(schema.ts(rec)),
                                salt(&self.split_map, schema.key(rec)),
                            );
                            ssb.rmw(key, |v| agg.update(&schema, rec, v));
                            out.survivors += 1;
                        }
                    } else {
                        self.note_reuse(out.survivors, out.flushed);
                    }
                } else {
                    for rec in batch.chunks_exact(schema.size) {
                        if !input.keep(rec) {
                            continue;
                        }
                        let key = pack_key(
                            memo.assign(schema.ts(rec)),
                            salt(&self.split_map, schema.key(rec)),
                        );
                        ssb.rmw(key, |v| agg.update(&schema, rec, v));
                        out.survivors += 1;
                    }
                }
            }
            QueryPlan::Join {
                input,
                side_off,
                window: _,
                retain_bytes,
            } => {
                let schema = input.schema;
                let take = (*retain_bytes).min(schema.size);
                let stride = 1 + take;
                let memo = &mut self.memo;
                out.note_batch(&schema, batch);
                if self.cold_batches >= COLD_BATCH_LIMIT {
                    self.batch_join = false;
                }
                if self.batch_join {
                    self.join_keys.clear();
                    self.join_elems.clear();
                    for rec in batch.chunks_exact(schema.size) {
                        if !input.keep(rec) {
                            continue;
                        }
                        let side = schema.field_u64(rec, *side_off);
                        self.join_keys
                            .push(pack_key(memo.assign(schema.ts(rec)), schema.key(rec)));
                        self.join_elems.push(side as u8);
                        self.join_elems.extend_from_slice(&rec[..take]);
                    }
                    let unique = ssb.append_batch(&self.join_keys, &self.join_elems, stride);
                    out.survivors = self.join_keys.len() as u64;
                    out.value_bytes = self.join_elems.len() as u64;
                    self.note_reuse(out.survivors, unique);
                } else {
                    let mut elem = vec![0u8; stride];
                    for rec in batch.chunks_exact(schema.size) {
                        if !input.keep(rec) {
                            continue;
                        }
                        let side = schema.field_u64(rec, *side_off);
                        elem[0] = side as u8;
                        elem[1..stride].copy_from_slice(&rec[..take]);
                        ssb.append(
                            pack_key(memo.assign(schema.ts(rec)), schema.key(rec)),
                            &elem,
                        );
                        out.survivors += 1;
                        out.value_bytes += stride as u64;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StreamDef;
    use crate::record::RecordSchema;
    use crate::window::WindowAssigner;
    use crate::AggSpec;
    use slash_state::backend::{SsbConfig, SsbNode};

    const SCHEMA: RecordSchema = RecordSchema::plain(32);

    fn agg_plan(agg: AggSpec) -> Rc<QueryPlan> {
        Rc::new(QueryPlan::Aggregate {
            input: StreamDef::new(SCHEMA),
            window: WindowAssigner::Tumbling { size: 1_000_000 },
            agg,
        })
    }

    fn records(n: usize, key_domain: u64) -> Vec<u8> {
        let mut data = vec![0u8; n * SCHEMA.size];
        for (i, rec) in data.chunks_exact_mut(SCHEMA.size).enumerate() {
            let ts = i as u64 * 10;
            rec[SCHEMA.ts_off..SCHEMA.ts_off + 8].copy_from_slice(&ts.to_le_bytes());
            let key = (i as u64 * 7) % key_domain;
            rec[SCHEMA.key_off..SCHEMA.key_off + 8].copy_from_slice(&key.to_le_bytes());
        }
        data
    }

    fn detached(agg: &AggSpec) -> SsbNode {
        SsbNode::detached(0, agg.descriptor(), SsbConfig::new(1))
    }

    #[test]
    fn combiner_activates_only_for_combinable_aggregations() {
        assert!(HotPath::new(agg_plan(AggSpec::Count), true, 64).combined());
        assert!(!HotPath::new(agg_plan(AggSpec::Count), false, 64).combined());
        // Float mean is not exactly associative under regrouping.
        assert!(!HotPath::new(agg_plan(AggSpec::MeanF64 { off: 0 }), true, 64).combined());
    }

    #[test]
    fn combined_and_per_record_paths_agree_bitwise() {
        let plan = agg_plan(AggSpec::Count);
        let data = records(1000, 13);

        let mut on = HotPath::new(Rc::clone(&plan), true, 64);
        let mut off = HotPath::new(Rc::clone(&plan), false, 64);
        assert!(on.combined() && !off.combined());
        let mut ssb_on = detached(&AggSpec::Count);
        let mut ssb_off = detached(&AggSpec::Count);

        let mut sum = (0u64, 0u64);
        for chunk in data.chunks(SCHEMA.size * 128) {
            let a = on.process(&mut ssb_on, chunk);
            let b = off.process(&mut ssb_off, chunk);
            assert_eq!(a.records, b.records);
            assert_eq!(a.survivors, b.survivors);
            assert_eq!(a.last_ts, b.last_ts);
            sum.0 += a.flushed;
            sum.1 += b.flushed;
        }
        // Combiner flushed at most one partial per distinct key per batch;
        // the per-record path never flushes.
        assert!(sum.0 > 0 && sum.0 < 1000);
        assert_eq!(sum.1, 0);
        assert_eq!(ssb_on.state_digest(), ssb_off.state_digest());
    }

    #[test]
    fn reuse_free_streams_turn_the_combiner_off() {
        let plan = agg_plan(AggSpec::Count);
        // Key domain far wider than the record count: every key distinct.
        let data = records(2048, u64::MAX / 7);
        let mut hp = HotPath::new(Rc::clone(&plan), true, 4096);
        let mut ssb_a = detached(&AggSpec::Count);
        assert!(hp.combined());
        for chunk in data.chunks(SCHEMA.size * 256) {
            hp.process(&mut ssb_a, chunk);
        }
        assert!(!hp.combined(), "cold batches must disable the combiner");
        // Bit-identical to the never-combined run regardless.
        let mut off = HotPath::new(plan, false, 4096);
        let mut ssb_b = detached(&AggSpec::Count);
        off.process(&mut ssb_b, &data);
        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest());
    }

    #[test]
    fn in_batch_probe_bails_mid_batch_on_reuse_free_streams() {
        let plan = agg_plan(AggSpec::Count);
        // One big batch, all keys distinct: the old end-of-batch check
        // would fold every record; the probe must stop at 1024 survivors.
        let data = records(4096, u64::MAX / 7);
        let mut hp = HotPath::new(Rc::clone(&plan), true, 4096);
        let mut ssb_a = detached(&AggSpec::Count);
        let out = hp.process(&mut ssb_a, &data);
        assert!(!hp.combined(), "probe must disable the combiner mid-batch");
        assert_eq!(out.records, 4096);
        assert_eq!(out.survivors, 4096);
        assert_eq!(
            out.flushed, 1024,
            "only the probe prefix goes through the combiner"
        );
        // Bit-identical to the never-combined run.
        let mut off = HotPath::new(plan, false, 4096);
        let mut ssb_b = detached(&AggSpec::Count);
        off.process(&mut ssb_b, &data);
        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest());
    }

    #[test]
    fn in_batch_probe_keeps_skewed_streams_combined() {
        let plan = agg_plan(AggSpec::Count);
        // 101 distinct keys: at the probe point reuse is overwhelming,
        // so the combiner must stay on through and past the probe.
        let data = records(4096, 101);
        let mut hp = HotPath::new(Rc::clone(&plan), true, 4096);
        let mut ssb = detached(&AggSpec::Count);
        hp.process(&mut ssb, &data);
        assert!(hp.combined(), "skewed streams must keep the combiner");
    }

    #[test]
    fn combiner_flush_retry_survives_tiny_tables() {
        // Eight slots at a 3/4 fill limit force mid-batch flushes.
        let plan = agg_plan(AggSpec::Count);
        let data = records(500, 101);
        let mut tiny = HotPath::new(Rc::clone(&plan), true, 8);
        let mut off = HotPath::new(plan, false, 8);
        let mut ssb_a = detached(&AggSpec::Count);
        let mut ssb_b = detached(&AggSpec::Count);
        let a = tiny.process(&mut ssb_a, &data);
        let b = off.process(&mut ssb_b, &data);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest());
    }
}
