//! Property test: materializer restart is exactly-once.
//!
//! An arbitrary event stream goes through a [`BrokerSink`] onto a projection
//! topic. One materializer folds it uninterrupted (the reference). A second
//! one is killed at arbitrary points mid-fold — losing all working state
//! accumulated since its last publication — and resumed from the last
//! *published* snapshot each time, exactly as a restarted materializer
//! process would. The property: after the final drain, the resumed chain's
//! tables carry the same `events_applied` (0 lost, 0 duplicated — any loss
//! or re-application shifts the count) and the same [`QueryTables::digest`]
//! (bit-identical rows, dashboard, and fold position) as the unkilled run.
//!
//! Sparse publication (`publish_every` > 1) is what gives the kill teeth:
//! the working tables strictly lead the published snapshot, so every crash
//! genuinely discards progress that resume must re-fetch.

//! A second property covers the sharded fold: N workers over disjoint
//! partition groups, each killed and resumed independently from its *own*
//! published snapshot (the global continuity token is a per-shard offset
//! vector), must merge into tables whose digest is bit-identical to the
//! single-shard fold — under arbitrary partition interleavings, shard
//! counts, publish cadences, and asymmetric per-shard kill schedules.

//! A third property covers the copy-on-write row tables that make a publish
//! cheap: tables cloned at arbitrary points of a fold (as `publish` does)
//! must keep exactly the rows a plain `BTreeMap` model held at that point,
//! however the fold writes to the shared chunks afterwards.

use pilot_core::events::{pilot_state_from_code, unit_state_from_code, ProjEvent};
use pilot_core::ids::{PilotId, UnitId};
use pilot_query::{BrokerSink, Materializer, PilotRow, QueryTables, ShardedMaterializer, UnitRow};
use pilot_streaming::Broker;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Generator-side event description: `(kind, id, code, pilot, a, b)`. The
/// offline proptest shim has no `prop_oneof`/`prop_map`, so variants are
/// encoded as a raw tuple and decoded here. Fields are range-normalized per
/// kind; states deliberately include "impossible" sequences — the projection
/// is an unchecked mirror and must fold any order deterministically.
type RawEv = (u8, u64, u8, Option<u64>, u32, u32);

fn build_events(raw: &[RawEv]) -> Vec<ProjEvent> {
    raw.iter()
        .enumerate()
        .map(|(i, &(kind, id, code, pilot, a, b))| {
            let t_s = i as f64 * 0.01;
            match kind % 4 {
                0 => ProjEvent::Pilot {
                    pilot: PilotId(id % 6),
                    state: pilot_state_from_code(1 + code % 5).expect("pilot code in range"),
                    t_s,
                },
                1 => {
                    let total = 1 + b % 16;
                    ProjEvent::PilotCapacity {
                        pilot: PilotId(id % 6),
                        free_cores: (a % 17).min(total),
                        total_cores: total,
                        t_s,
                    }
                }
                2 => ProjEvent::Unit {
                    unit: UnitId(id % 40),
                    state: unit_state_from_code(1 + code % 7).expect("unit code in range"),
                    pilot: pilot.map(|p| PilotId(p % 6)),
                    t_s,
                },
                _ => ProjEvent::UnitMetric {
                    unit: UnitId(id % 40),
                    wait_s: a as f64 / 100.0,
                    exec_s: b as f64 / 100.0,
                    t_s,
                },
            }
        })
        .collect()
}

/// Unit id for a raw generator id: mostly a dense range straddling a chunk
/// boundary (rows get rewritten), some sparse ids, a few far-away ones.
fn spread_unit_id(id: u64) -> u64 {
    match id % 5 {
        0 => id,
        1 if id % 7 == 1 => id << 40,
        _ => id % 70,
    }
}

fn spread_events(raw: &[RawEv]) -> Vec<ProjEvent> {
    raw.iter()
        .enumerate()
        .map(|(i, &(kind, id, code, pilot, a, b))| {
            let t_s = i as f64 * 0.01;
            match kind % 3 {
                0 => ProjEvent::Unit {
                    unit: UnitId(spread_unit_id(id)),
                    state: unit_state_from_code(1 + code % 7).expect("unit code in range"),
                    pilot: pilot.map(PilotId),
                    t_s,
                },
                1 => ProjEvent::UnitMetric {
                    unit: UnitId(spread_unit_id(id)),
                    wait_s: a as f64 / 100.0,
                    exec_s: b as f64 / 100.0,
                    t_s,
                },
                _ => ProjEvent::Pilot {
                    pilot: PilotId(id % 130),
                    state: pilot_state_from_code(1 + code % 5).expect("pilot code in range"),
                    t_s,
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restart_at_arbitrary_kill_points_rebuilds_bit_identical_tables(
        gens in proptest::collection::vec(
            (0u8..4, 0u64..40, 0u8..8, proptest::option::of(0u64..6), 0u32..500, 0u32..500),
            20..250,
        ),
        partitions in 1usize..6,
        publish_every in 1u64..20,
        // Kill schedule: after each of these many poll rounds, crash and
        // resume from the last published snapshot.
        kill_rounds in proptest::collection::vec(1usize..6, 1..5),
        poll_chunk in 1usize..17,
    ) {
        let broker = Arc::new(Broker::new());
        let sink = BrokerSink::create(Arc::clone(&broker), "proj", partitions).unwrap();
        let events = build_events(&gens);
        // Batch in uneven chunks so partitions fill at different rates.
        for chunk in events.chunks(7) {
            use pilot_core::events::EventSink;
            sink.emit_batch(chunk);
        }

        // Reference: one materializer, never killed.
        let mut reference = Materializer::bootstrap(Arc::clone(&broker), "proj").unwrap();
        reference.catch_up().unwrap();
        let want_digest = reference.tables().digest();
        let want_applied = reference.tables().events_applied;
        prop_assert_eq!(want_applied, events.len() as u64);

        // Killed/resumed chain. Each incarnation folds a few rounds, then
        // "crashes": everything but the last published snapshot is dropped.
        let mut published: Arc<QueryTables> = {
            let m = Materializer::bootstrap(Arc::clone(&broker), "proj").unwrap();
            m.service().snapshot() // the empty bootstrap snapshot
        };
        for rounds in &kill_rounds {
            let mut m = Materializer::resume(Arc::clone(&broker), "proj", &published).unwrap();
            m.set_publish_every(publish_every);
            for _ in 0..*rounds {
                m.poll_apply(poll_chunk).unwrap();
            }
            published = m.service().snapshot();
            // m dropped here: the crash. Working tables beyond `published`
            // are lost and must be re-derived by the next incarnation.
        }
        let mut last = Materializer::resume(Arc::clone(&broker), "proj", &published).unwrap();
        last.catch_up().unwrap();

        prop_assert_eq!(last.tables().events_applied, want_applied, "lost or duplicated events");
        prop_assert_eq!(last.tables().digest(), want_digest, "rebuilt projection diverged");
        prop_assert_eq!(last.lag().unwrap(), 0);
        prop_assert_eq!(last.events_lost(), 0);
        prop_assert_eq!(last.decode_errors(), 0);

        // The published snapshot converges too (catch_up force-publishes).
        let qs = last.service();
        prop_assert_eq!(qs.snapshot().digest(), want_digest);
    }

    #[test]
    fn sharded_fold_with_kills_merges_bit_identical_to_single_fold(
        gens in proptest::collection::vec(
            (0u8..4, 0u64..40, 0u8..8, proptest::option::of(0u64..6), 0u32..500, 0u32..500),
            20..250,
        ),
        partitions in 1usize..6,
        shards in 1usize..5,
        publish_every in 1u64..20,
        // Kill schedule: after each entry's poll rounds, every shard worker
        // crashes back to its own published snapshot. Shards make *asymmetric*
        // progress within a round (shard s polls `rounds + s` times), so
        // restarts happen from divergent per-shard positions.
        kill_rounds in proptest::collection::vec(1usize..6, 1..5),
        poll_chunk in 1usize..17,
    ) {
        let broker = Arc::new(Broker::new());
        let sink = BrokerSink::create(Arc::clone(&broker), "proj", partitions).unwrap();
        let events = build_events(&gens);
        for chunk in events.chunks(7) {
            use pilot_core::events::EventSink;
            sink.emit_batch(chunk);
        }

        // Reference: one unsharded fold over the identical topic.
        let mut reference = Materializer::bootstrap(Arc::clone(&broker), "proj").unwrap();
        reference.catch_up().unwrap();
        let want_digest = reference.tables().digest();
        let want_applied = reference.tables().events_applied;

        // Killed/resumed sharded chain: the continuity token is the vector of
        // per-shard snapshots, each authoritative for its own partitions.
        let mut snapshots: Vec<Arc<QueryTables>> = {
            let sm = ShardedMaterializer::bootstrap(Arc::clone(&broker), "proj", shards).unwrap();
            sm.service().shard_snapshots()
        };
        for rounds in &kill_rounds {
            let mut sm =
                ShardedMaterializer::resume(Arc::clone(&broker), "proj", &snapshots).unwrap();
            sm.set_publish_every(publish_every);
            for (s, m) in sm.shards_mut().iter_mut().enumerate() {
                for _ in 0..rounds + s {
                    m.poll_apply(poll_chunk).unwrap();
                }
            }
            snapshots = sm.service().shard_snapshots();
            // sm dropped here: every shard crashes, losing work past its
            // last publication.
        }
        let mut last =
            ShardedMaterializer::resume(Arc::clone(&broker), "proj", &snapshots).unwrap();
        last.catch_up().unwrap();

        let merged = last.service().merged();
        prop_assert_eq!(merged.events_applied, want_applied, "lost or duplicated events");
        prop_assert_eq!(merged.digest(), want_digest, "merged projection diverged");
        prop_assert_eq!(last.lag().unwrap(), 0);
        prop_assert_eq!(last.events_lost(), 0);
    }

    #[test]
    fn clones_keep_the_rows_of_their_moment(
        gens in proptest::collection::vec(
            (0u8..3, 0u64..2000, 0u8..8, proptest::option::of(0u64..6), 0u32..500, 0u32..500),
            1..300,
        ),
        clone_points in proptest::collection::vec(0usize..300, 0..12),
    ) {
        let events = spread_events(&gens);
        let mut tables = QueryTables::new(1);
        let mut units: BTreeMap<u64, UnitRow> = BTreeMap::new();
        let mut pilots: BTreeMap<u64, PilotRow> = BTreeMap::new();
        // (clone, unit model, pilot model, digest) as of each clone point.
        let mut clones = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            tables.apply(ev);
            match *ev {
                ProjEvent::Unit { unit, .. } | ProjEvent::UnitMetric { unit, .. } => {
                    units.insert(unit.0, *tables.unit(unit).unwrap());
                }
                ProjEvent::Pilot { pilot, .. } | ProjEvent::PilotCapacity { pilot, .. } => {
                    pilots.insert(pilot.0, *tables.pilot(pilot).unwrap());
                }
            }
            if clone_points.contains(&i) {
                let snap = tables.clone();
                let digest = snap.digest();
                clones.push((snap, units.clone(), pilots.clone(), digest));
            }
        }
        prop_assert!(tables.chunk_copies() <= tables.events_applied);
        clones.push((tables.clone(), units, pilots, tables.digest()));
        for (snap, units, pilots, digest) in &clones {
            prop_assert_eq!(snap.unit_count(), units.len());
            prop_assert_eq!(snap.pilot_count(), pilots.len());
            let snap_units = snap.units().map(|(id, r)| (id.0, *r));
            prop_assert!(snap_units.eq(units.iter().map(|(k, v)| (*k, *v))));
            let snap_pilots = snap.pilots().map(|(id, r)| (id.0, *r));
            prop_assert!(snap_pilots.eq(pilots.iter().map(|(k, v)| (*k, *v))));
            prop_assert_eq!(snap.digest(), *digest);
        }
    }
}
