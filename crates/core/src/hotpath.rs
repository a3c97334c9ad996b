//! The batch-vectorized record hot path.
//!
//! Splits record processing out of [`crate::worker::SlashWorker`] so the
//! same loop the simulator charges virtual costs for can also be driven
//! raw: perf-ledger times it, and a root test pins the combiner's on/off
//! verdicts on counts. A batch goes through two fused stages:
//!
//! * **Filter into a selection vector.** A plan's
//!   [`Predicate`](crate::query::Predicate) is evaluated over the whole
//!   batch first, branch-free, into the indices of the records it keeps
//!   ([`select`](crate::query::Predicate::select)); every loop below runs
//!   over those survivors only, so the state loops carry no filter branch
//!   — YSB's 1/3-selective one is unpredictable per record. A plan without
//!   a predicate skips the pass and walks the batch itself.
//! * **State update.** Aggregations fold the batch's survivors into the
//!   worker's L1-resident write-combining table in the node's SSB in one
//!   loop ([`SsbNode::fold_batch`], the batch kernel), with the update of
//!   the aggregation chosen once per batch; the SSB merges the per-key
//!   partials into the index when the table is full and when the epoch
//!   closes: N index probes collapse into one per *distinct* key per
//!   epoch. Enabled only for states whose CRDT merge is exactly associative
//!   ([`slash_state::StateDescriptor::regroupable`]); float-summing
//!   aggregations keep the per-record RMW loop so results stay
//!   bit-identical. Joins append per record ([`SsbNode::append`]): each
//!   element lands in its key's newest run in place, which measured faster
//!   than gathering a batch by key (EXPERIMENTS.md).
//!
//! The combiner is **adaptive**: the SSB judges key reuse where it shows
//! — once after the first 1,024 folds, then at table flushes — and a
//! reuse-free stream (wide uniform key domains, where dedup is pure
//! overhead) goes back to the per-record loop for the rest of the run,
//! mid-batch if need be: the RMW loop takes over at the next survivor.
//! The decision depends only on the data, so runs stay deterministic, and
//! both paths produce bit-identical state.
//!
//! The hot path does *no* metrics or cost accounting — it returns a
//! [`BatchOutcome`] and the worker converts that into vectorized charges
//! (one `instr`/`charge` call per batch instead of per record).

use std::rc::Rc;

use slash_state::backend::SsbNode;
use slash_state::{pack_key, CounterCrdt, HllCrdt, MaxCrdt, MinCrdt};

use crate::agg::AggSpec;
use crate::query::QueryPlan;
use crate::record::RecordSchema;
use crate::window::WindowMemo;

/// What one batch did, for vectorized cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Records scanned (pipeline cost applies to all of them).
    pub records: u64,
    /// Records that survived the filter and touched state.
    pub survivors: u64,
    /// Keys that entered the worker's combiner table this batch — each is
    /// one partial the SSB merges at a flush, charged when it enters (zero
    /// when the combiner is off; then survivors hit the SSB directly).
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

/// Where this worker's write combiner stands.
#[derive(Debug, Clone, Copy)]
enum Combine {
    /// Not a combinable aggregation, or combining disabled.
    Never,
    /// Combinable; the table (this many slots) is attached to the node's
    /// SSB on the first batch — the SSB owns it, and `new` has no SSB.
    Pending(usize),
    /// Folding into this table of the node's SSB.
    On(usize),
    /// A reuse verdict turned the table off, after this many survivors of
    /// which this many entered it as distinct keys.
    Off(u64, u64),
}

/// Reusable per-worker record-processing state.
pub struct HotPath {
    plan: Rc<QueryPlan>,
    combine: Combine,
    /// Scratch: the batch's selection vector — ascending indices of the
    /// records the plan's predicate keeps.
    sel: Vec<u32>,
    /// Scratch: the join element being packed, `1 + take` bytes.
    join_elem: Vec<u8>,
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
    salt_split(map, gk)
}

/// [`salt`] on a split run: the binary search, out of line so that unsplit
/// runs inline only the emptiness test into the fold loop.
#[inline(never)]
fn salt_split(map: &[(u64, u64)], gk: u64) -> u64 {
    match map.binary_search_by_key(&gk, |p| p.0) {
        Ok(i) => map[i].1,
        Err(_) => gk,
    }
}

impl HotPath {
    /// Build the hot path for a plan. `combine` gates the write combiner,
    /// which additionally requires the aggregation's CRDT to be exactly
    /// associative under regrouping.
    pub fn new(plan: Rc<QueryPlan>, combine: bool, combiner_slots: usize) -> Self {
        let combinable = match &*plan {
            QueryPlan::Aggregate { agg, .. } if combine => agg.descriptor().regroupable(),
            _ => false,
        };
        let memo = WindowMemo::new(plan.window());
        HotPath {
            plan,
            combine: match combinable {
                true => Combine::Pending(combiner_slots),
                false => Combine::Never,
            },
            sel: Vec::new(),
            join_elem: Vec::new(),
            memo,
            split_version: 0,
            split_map: Vec::new(),
        }
    }

    /// Whether the write combiner is active for this plan.
    pub fn combined(&self) -> bool {
        matches!(self.combine, Combine::Pending(_) | Combine::On(_))
    }

    /// `(survivors, distinct keys)` the combiner had taken when a reuse
    /// verdict turned it off; `None` while it is on or never was.
    pub fn combiner_off(&self) -> Option<(u64, u64)> {
        match self.combine {
            Combine::Off(survivors, distinct) => Some((survivors, distinct)),
            _ => None,
        }
    }

    /// The SSB table to fold into, attached on first use; `None` when the
    /// combiner is off — noticing here a verdict the SSB reached since the
    /// last look (another worker's epoch close judges this table too).
    fn table(&mut self, ssb: &mut SsbNode) -> Option<usize> {
        if let Combine::Pending(slots) = self.combine {
            self.combine = Combine::On(ssb.attach_combiner(slots));
        }
        match self.combine {
            Combine::On(id) if ssb.combiner(id).is_cold() => {
                let table = ssb.combiner(id);
                self.combine = Combine::Off(table.folds(), table.inserts());
                None
            }
            Combine::On(id) => Some(id),
            _ => None,
        }
    }

    /// Process one batch of raw records against `ssb`.
    pub fn process(&mut self, ssb: &mut SsbNode, batch: &[u8]) -> BatchOutcome {
        let plan = Rc::clone(&self.plan);
        let input = plan.input();
        let schema = input.schema;
        let mut out = BatchOutcome::default();
        out.note_batch(&schema, batch);
        match input.filter {
            Some(predicate) => {
                let mut sel = std::mem::take(&mut self.sel);
                predicate.select(&schema, batch, &mut sel);
                out.survivors = sel.len() as u64;
                let kept = sel
                    .iter()
                    .map(|&i| &batch[i as usize * schema.size..][..schema.size]);
                self.apply(ssb, &plan, kept, &mut out);
                self.sel = sel;
            }
            None => {
                out.survivors = out.records;
                self.apply(ssb, &plan, batch.chunks_exact(schema.size), &mut out);
            }
        }
        out
    }

    /// Fold survivors into worker table `id` with the batch kernel until
    /// `recs` runs out or a reuse verdict turns the table off; then the
    /// caller's per-record loop takes the next survivor on (and the rest of
    /// the run). State stays bit-identical. The aggregation is chosen here,
    /// once per batch, so the kernel's loop gets a monomorphic update. Out
    /// of line, so that `apply`'s per-record loop compiles as it would
    /// without the kernel beside it.
    #[inline(never)]
    fn fold<'a>(
        &mut self,
        ssb: &mut SsbNode,
        id: usize,
        agg: &AggSpec,
        schema: RecordSchema,
        recs: &mut impl Iterator<Item = &'a [u8]>,
    ) {
        let (memo, split_map) = (&mut self.memo, &self.split_map);
        let key_of = |rec: &&[u8]| {
            pack_key(
                memo.assign(schema.ts(rec)),
                salt(split_map, schema.key(rec)),
            )
        };
        let field = |rec: &[u8], off| schema.field_u64(rec, off);
        match *agg {
            AggSpec::Count => ssb.fold_batch(id, recs, key_of, |_, v| CounterCrdt::add(v, 1)),
            AggSpec::SumU64 { off } => ssb.fold_batch(id, recs, key_of, |rec, v| {
                CounterCrdt::add(v, field(rec, off))
            }),
            AggSpec::MaxU64 { off } => ssb.fold_batch(id, recs, key_of, |rec, v| {
                MaxCrdt::update(v, field(rec, off))
            }),
            AggSpec::MinU64 { off } => ssb.fold_batch(id, recs, key_of, |rec, v| {
                MinCrdt::update(v, field(rec, off))
            }),
            AggSpec::ApproxDistinct { off } => ssb.fold_batch(id, recs, key_of, |rec, v| {
                HllCrdt::observe(v, field(rec, off))
            }),
            AggSpec::MeanF64 { .. } => unreachable!("not regroupable: never combined"),
        }
    }

    /// Apply a batch's surviving records, in order, to the plan's state.
    fn apply<'a>(
        &mut self,
        ssb: &mut SsbNode,
        plan: &QueryPlan,
        mut recs: impl Iterator<Item = &'a [u8]>,
        out: &mut BatchOutcome,
    ) {
        match plan {
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
                if let Some(id) = self.table(ssb) {
                    let entered = ssb.combiner(id).inserts();
                    self.fold(ssb, id, agg, schema, &mut recs);
                    out.flushed = ssb.combiner(id).inserts() - entered;
                    // Take note of a verdict reached in this batch, so
                    // `combined()` is already false for the worker's charges.
                    self.table(ssb);
                }
                // Every survivor when the combiner is off, none while it
                // is on.
                for rec in recs {
                    let key = pack_key(
                        self.memo.assign(schema.ts(rec)),
                        salt(&self.split_map, schema.key(rec)),
                    );
                    ssb.rmw(key, |v| agg.update(&schema, rec, v));
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
                out.value_bytes = out.survivors * stride as u64;
                let elem = &mut self.join_elem;
                elem.resize(stride, 0);
                for rec in recs {
                    let side = schema.field_u64(rec, *side_off);
                    elem[0] = side as u8;
                    elem[1..].copy_from_slice(&rec[..take]);
                    ssb.append(pack_key(memo.assign(schema.ts(rec)), schema.key(rec)), elem);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StreamDef;
    use crate::record::RecordSchema;
    use crate::window::WindowAssigner;
    use crate::AggSpec;
    use slash_desim::Sim;
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

        let mut entered = Vec::new();
        for chunk in data.chunks(SCHEMA.size * 128) {
            let a = on.process(&mut ssb_on, chunk);
            let b = off.process(&mut ssb_off, chunk);
            assert_eq!(a.records, b.records);
            assert_eq!(a.survivors, b.survivors);
            assert_eq!(a.last_ts, b.last_ts);
            assert_eq!(b.flushed, 0, "the per-record path has no table");
            entered.push(a.flushed);
        }
        // The table outlives the batch: each of the 13 keys enters it once,
        // in the first batch, and is charged there; seven more batches fold
        // into the same partials.
        assert_eq!(entered, [13, 0, 0, 0, 0, 0, 0, 0]);
        // Nothing reached the index yet, and every reader sees it anyway.
        assert!(ssb_on.dirty() && !ssb_off.dirty());
        assert_eq!(ssb_on.state_digest(), ssb_off.state_digest());
        let key = pack_key(0, 7);
        assert_eq!(
            ssb_on.local_get(key).map(<[u8]>::to_vec),
            ssb_off.local_get(key).map(<[u8]>::to_vec)
        );
        // The epoch close is the flush.
        ssb_on.close_epoch(&mut Sim::new()).unwrap();
        assert!(!ssb_on.dirty());
        assert_eq!(ssb_on.state_digest(), ssb_off.state_digest());
    }

    #[test]
    fn reuse_free_streams_turn_the_combiner_off() {
        let plan = agg_plan(AggSpec::Count);
        // Key domain far wider than the record count: every key distinct.
        let data = records(2048, u64::MAX / 7);
        let mut hp = HotPath::new(Rc::clone(&plan), true, 4096);
        let mut ssb_a = detached(&AggSpec::Count);
        // The probe counts survivors, not batches: 256-record chunks reach
        // its 1,024 in the fourth, whatever the batch size.
        let still_on: Vec<bool> = data
            .chunks(SCHEMA.size * 256)
            .map(|chunk| {
                hp.process(&mut ssb_a, chunk);
                hp.combined()
            })
            .collect();
        assert_eq!(
            still_on,
            [true, true, true, false, false, false, false, false]
        );
        assert_eq!(hp.combiner_off(), Some((1024, 1024)));
        // The exit drained the table; the rest went per record. Bit-identical
        // to the never-combined run.
        assert!(!ssb_a.dirty());
        let mut off = HotPath::new(plan, false, 4096);
        let mut ssb_b = detached(&AggSpec::Count);
        off.process(&mut ssb_b, &data);
        assert_eq!(off.combiner_off(), None, "never on is not turned off");
        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest());
    }

    #[test]
    fn in_batch_probe_bails_mid_batch_on_reuse_free_streams() {
        let plan = agg_plan(AggSpec::Count);
        // One big batch, all keys distinct: an end-of-batch check would
        // fold every record; the probe must stop at 1024 survivors.
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

    /// A stream the probe lets through (600 keys: 59 % distinct at 1,024
    /// folds) is judged again where its reuse shows — at the flush. An
    /// epoch of 2,000 folds flushes 600 keys, over the 1/4 break-even: off.
    /// The same keys over 4,000 folds are under it: on.
    #[test]
    fn a_flush_with_too_many_keys_per_fold_turns_the_table_off() {
        let plan = agg_plan(AggSpec::Count);
        for (folds, stays_on) in [(2000, false), (4000, true)] {
            let data = records(folds + 128, 600);
            let (epoch, next) = data.split_at(folds * SCHEMA.size);
            let mut hp = HotPath::new(Rc::clone(&plan), true, 1024);
            let mut ssb = detached(&AggSpec::Count);
            for chunk in epoch.chunks(SCHEMA.size * 500) {
                hp.process(&mut ssb, chunk);
            }
            assert!(hp.combined(), "{folds}: no verdict before a flush");
            ssb.close_epoch(&mut Sim::new()).unwrap();
            // The worker learns of the verdict at its next batch.
            let out = hp.process(&mut ssb, next);
            assert_eq!(hp.combined(), stays_on, "{folds} folds over 600 keys");
            assert_eq!(out.survivors, 128);
            let off = hp.combiner_off();
            assert_eq!(off, (!stays_on).then_some((folds as u64, 600)));
            let mut per_record = HotPath::new(Rc::clone(&plan), false, 1024);
            let mut ssb_b = detached(&AggSpec::Count);
            per_record.process(&mut ssb_b, &data);
            assert_eq!(ssb.state_digest(), ssb_b.state_digest());
        }
    }

    #[test]
    fn combiner_flush_retry_survives_tiny_tables() {
        // Eight slots at a 3/4 fill limit hold six keys: 101 keys force a
        // flush every few records, mid-batch, and each re-entry is charged.
        let plan = agg_plan(AggSpec::Count);
        let data = records(500, 101);
        let mut tiny = HotPath::new(Rc::clone(&plan), true, 8);
        let mut off = HotPath::new(plan, false, 8);
        let mut ssb_a = detached(&AggSpec::Count);
        let mut ssb_b = detached(&AggSpec::Count);
        let a = tiny.process(&mut ssb_a, &data);
        let b = off.process(&mut ssb_b, &data);
        assert_eq!(a.survivors, b.survivors);
        assert!(a.flushed > 101 && a.flushed <= 500, "{}", a.flushed);
        assert!(tiny.combined(), "500 folds are under the verdict's sample");
        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest());
        ssb_a.close_epoch(&mut Sim::new()).unwrap();
        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest());
    }

    /// The scalar reference of [`HotPath::process`]: the filter asked per
    /// record ([`StreamDef::keep`]), every survivor applied where it stands
    /// — folded while the SSB says the table is on, otherwise one `rmw` or
    /// `append` each. No selection vector, no batching.
    struct Scalar {
        plan: Rc<QueryPlan>,
        /// The combiner table of its SSB to fold into, if any.
        table: Option<usize>,
    }

    impl Scalar {
        fn process(&mut self, ssb: &mut SsbNode, batch: &[u8]) -> BatchOutcome {
            let plan = Rc::clone(&self.plan);
            let (input, window) = (plan.input(), plan.window());
            let schema = input.schema;
            let table = self.table;
            let entered = table.map_or(0, |id| ssb.combiner(id).inserts());
            let mut out = BatchOutcome::default();
            for rec in batch.chunks_exact(schema.size) {
                out.records += 1;
                out.last_ts = schema.ts(rec);
                if !input.keep(rec) {
                    continue;
                }
                out.survivors += 1;
                let key = pack_key(window.assign(schema.ts(rec)), schema.key(rec));
                match &*plan {
                    QueryPlan::Aggregate { agg, .. } => {
                        let update = |rec: &&[u8], v: &mut [u8]| agg.update(&schema, rec, v);
                        match table {
                            Some(id) if !ssb.combiner(id).is_cold() => {
                                ssb.fold_batch(id, &mut std::iter::once(rec), |_| key, update);
                            }
                            _ => ssb.rmw(key, |v| update(&rec, v)),
                        }
                    }
                    QueryPlan::Join {
                        side_off,
                        retain_bytes,
                        ..
                    } => {
                        let mut elem = vec![schema.field_u64(rec, *side_off) as u8];
                        elem.extend_from_slice(&rec[..*retain_bytes]);
                        ssb.append(key, &elem);
                        out.value_bytes += elem.len() as u64;
                    }
                }
            }
            out.flushed = table.map_or(0, |id| ssb.combiner(id).inserts()) - entered;
            out
        }
    }

    /// Satellite (the selection vector under a model): over batch sizes
    /// around the workers' 512, every selectivity, with and without a
    /// predicate, and every way a batch can leave the fold loop — table
    /// on, off, flushed mid-batch (8 slots), turned off mid-batch by the
    /// probe at 1,024 folds of a reuse-free stream — and joins over reused
    /// and reuse-free keys, `process` reports the same [`BatchOutcome`] per
    /// batch and leaves the same state as the scalar reference.
    #[test]
    fn process_matches_a_scalar_reference_that_filters_per_record() {
        use crate::query::Predicate;
        use slash_desim::DetRng;
        use slash_state::descriptor::appended_descriptor;

        const TOTAL: usize = 4_100;
        const EVENT_OFF: usize = 16;
        const SIDE_OFF: usize = 24;
        // (what, combine, combiner slots, reuse-free keys, join)
        let modes = [
            ("combiner on", true, 4096, false, false),
            ("combiner off", false, 4096, false, false),
            ("8-slot table", true, 8, false, false),
            ("reuse-free stream", true, 4096, true, false),
            ("join", true, 0, false, true),
            ("join over reuse-free keys", false, 0, true, true),
        ];
        let mut rng = DetRng::new(0x5E1_EC7);
        let mut exits = 0;
        for (what, combine, slots, reuse_free, join) in modes {
            for selectivity in [0, 1, 3] {
                let mut data = vec![0u8; TOTAL * SCHEMA.size];
                for (i, rec) in data.chunks_exact_mut(SCHEMA.size).enumerate() {
                    let ts = i as u64 * 700 + rng.next_below(700);
                    let key = match reuse_free {
                        true => i as u64 * 7919 + (1 << 40),
                        false => rng.next_below(101),
                    };
                    // The predicate keeps event 0: none, all, one in three.
                    let event = match selectivity {
                        0 => 1,
                        1 => 0,
                        _ => rng.next_below(3),
                    };
                    rec[..8].copy_from_slice(&ts.to_le_bytes());
                    rec[8..16].copy_from_slice(&key.to_le_bytes());
                    rec[EVENT_OFF..EVENT_OFF + 8].copy_from_slice(&event.to_le_bytes());
                    rec[SIDE_OFF..].copy_from_slice(&rng.next_below(2).to_le_bytes());
                }
                for filtered in [true, false] {
                    let input = match filtered {
                        true => {
                            StreamDef::new(SCHEMA).with_filter(Predicate::field_eq(EVENT_OFF, 0))
                        }
                        false => StreamDef::new(SCHEMA),
                    };
                    let window = WindowAssigner::Tumbling { size: 1_000_000 };
                    let plan = Rc::new(match join {
                        true => QueryPlan::Join {
                            input,
                            side_off: SIDE_OFF,
                            window,
                            retain_bytes: 16,
                        },
                        false => QueryPlan::Aggregate {
                            input,
                            window,
                            agg: AggSpec::Count,
                        },
                    });
                    let desc = match join {
                        true => appended_descriptor(),
                        false => AggSpec::Count.descriptor(),
                    };
                    for batch_records in [0, 1, 511, 512, 513] {
                        let at = format!(
                            "{what}, selectivity 1/{selectivity}, filtered {filtered}, \
                             batches of {batch_records}"
                        );
                        let mut hp = HotPath::new(Rc::clone(&plan), combine, slots);
                        let mut ssb_a = SsbNode::detached(0, desc, SsbConfig::new(1));
                        let mut ssb_b = SsbNode::detached(0, desc, SsbConfig::new(1));
                        let mut scalar = Scalar {
                            plan: Rc::clone(&plan),
                            table: hp.combined().then(|| ssb_b.attach_combiner(slots)),
                        };
                        let batches: Vec<&[u8]> = match batch_records {
                            0 => vec![&[]],
                            n => data.chunks(n * SCHEMA.size).collect(),
                        };
                        for (i, batch) in batches.into_iter().enumerate() {
                            let got = hp.process(&mut ssb_a, batch);
                            let want = scalar.process(&mut ssb_b, batch);
                            assert_eq!(got, want, "{at}: outcome of batch {i}");
                        }
                        assert_eq!(ssb_a.state_digest(), ssb_b.state_digest(), "{at}");
                        exits += usize::from(hp.combiner_off().is_some());
                    }
                }
            }
        }
        // Two modes leave the fold loop for good — the reuse-free stream at
        // the probe, the 8-slot table at the first flush judged — in every
        // case that fed them 1,024 survivors: each batch size but the empty
        // one, filtered at selectivity 1 and 1/3, unfiltered at all three.
        assert_eq!(exits, 2 * 4 * 5, "reuse verdicts reached");
    }

    /// The tables belong to the node and live as long as the epoch: two
    /// workers fold three batches each into node 0, whichever worker
    /// closes the epoch ships *both* tables' partials, and the leaders end
    /// up with the sequential count of every key.
    #[test]
    fn an_epoch_closed_by_one_worker_ships_the_other_workers_partials() {
        use slash_desim::DetRng;
        use slash_rdma::{Fabric, FabricConfig};
        use slash_state::backend::build_cluster;
        use slash_state::hash::partition_of;
        use slash_state::CounterCrdt;
        use std::collections::BTreeMap;

        const KEYS: u64 = 40;
        let plan = agg_plan(AggSpec::Count);
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let ports = fabric.add_nodes(2);
        let cfg = SsbConfig {
            epoch_bytes: u64::MAX, // closed by hand, below
            ..SsbConfig::new(2)
        };
        let mut ssb = build_cluster(&fabric, &ports, AggSpec::Count.descriptor(), cfg);

        // Seeded input, one partition per worker, all in window 0.
        let mut rng = DetRng::new(0x21_C0DE);
        let mut want: BTreeMap<u64, u64> = BTreeMap::new();
        let mut partition = |n: usize| {
            let mut data = vec![0u8; n * SCHEMA.size];
            for (i, rec) in data.chunks_exact_mut(SCHEMA.size).enumerate() {
                let key = rng.next_below(KEYS);
                *want.entry(key).or_default() += 1;
                rec[SCHEMA.ts_off..SCHEMA.ts_off + 8].copy_from_slice(&(i as u64).to_le_bytes());
                rec[SCHEMA.key_off..SCHEMA.key_off + 8].copy_from_slice(&key.to_le_bytes());
            }
            data
        };
        let inputs = [partition(300), partition(300)];
        let mut workers = [
            HotPath::new(Rc::clone(&plan), true, 1024),
            HotPath::new(Rc::clone(&plan), true, 1024),
        ];
        let mut entered = [0u64; 2];
        for batch in 0..3 {
            for (w, hp) in workers.iter_mut().enumerate() {
                let bytes = &inputs[w][batch * 100 * SCHEMA.size..(batch + 1) * 100 * SCHEMA.size];
                entered[w] += hp.process(&mut ssb[0], bytes).flushed;
            }
        }
        // Six batches, no flush: nothing left node 0, nothing is lost.
        assert!(entered.iter().all(|&n| n == KEYS), "{entered:?}");
        assert!(ssb[0].dirty() && ssb[0].flushed());
        // Worker 0's turn comes first in a step; its close drains worker
        // 1's table too.
        ssb[0].note_progress(1_000);
        ssb[0].close_epoch(&mut sim).unwrap();
        assert!(!ssb[0].dirty());
        for _ in 0..1_000 {
            for node in ssb.iter_mut() {
                node.pump(&mut sim).unwrap();
            }
            sim.run();
        }
        assert_eq!(ssb[1].vclock().get(0), 1_000, "node 1 merged the epoch");
        for (&key, &count) in &want {
            let state_key = pack_key(0, key);
            let leader = partition_of(state_key, 2);
            let got = ssb[leader].local_get(state_key).map(CounterCrdt::get);
            assert_eq!(got, Some(count), "key {key} on leader {leader}");
        }
    }
}
