//! Property-based tests over the workspace's core invariants.
//!
//! The container has no registry access, so instead of `proptest` these use
//! a small in-repo harness: each property runs over a few hundred random
//! cases drawn from the workspace's own deterministic [`SimRng`], with the
//! failing case's seed printed on assertion failure — rerun with that seed
//! to replay the exact case.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use iotse::apps::kernels::coap::{CoapCode, CoapMessage, CoapOption, CoapType};
use iotse::apps::kernels::jpeg;
use iotse::apps::kernels::json::Json;
use iotse::apps::kernels::sync::{chunk, ChunkConfig};
use iotse::energy::attribution::{Device, Routine};
use iotse::energy::{EnergyLedger, Power, PowerTrace};
use iotse::prelude::*;
use iotse::sim::queue::EventQueue;
use iotse::sim::rng::SimRng;
use iotse::sim::trace::{self, TraceKind, TraceLog};

/// Runs `body` over `cases` random cases; the per-case RNG is derived from
/// the case index so failures name a replayable case number.
fn forall(cases: u64, mut body: impl FnMut(u64, &mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::seed_from_u64(0xF0F0_0000 ^ case);
        body(case, &mut rng);
    }
}

// ---------------------------------------------------------------- sim ----

/// The event queue pops in non-decreasing time order with FIFO ties,
/// whatever the insertion order.
#[test]
fn event_queue_orders_any_schedule() {
    forall(200, |case, rng| {
        let n = rng.gen_range(1..200usize);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_nanos(rng.gen_range(0..1_000u64)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(s) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(s.time >= lt, "case {case}: time went backwards");
                if s.time == lt {
                    assert!(s.item > li, "case {case}: FIFO violated among ties");
                }
            }
            last = Some((s.time, s.item));
        }
    });
}

/// The queue's contract as a plain binary heap of `(time, seq)` keys: the
/// oracle every [`EventQueue`] drain below is checked against.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    next_seq: u64,
}

impl HeapModel {
    fn push(&mut self, time: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq)));
        seq
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((time, _))| *time)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse(key)| key)
    }

    fn pop_at(&mut self, time: SimTime) -> Option<(SimTime, u64)> {
        if self.peek_time() == Some(time) {
            self.pop()
        } else {
            None
        }
    }
}

/// A due time near `base`: mostly a few nanoseconds on (ties across runs),
/// sometimes any magnitude up to the end of time, sometimes exactly
/// [`SimTime::MAX`].
fn arb_time(rng: &mut SimRng, base: SimTime) -> SimTime {
    match rng.gen_range(0..10u32) {
        0..=5 => base.saturating_add(SimDuration::from_nanos(rng.gen_range(0..4u64))),
        6..=8 => {
            let magnitude = rng.gen_range(0..64u32);
            base.saturating_add(SimDuration::from_nanos(
                rng.gen_range(0..=u64::MAX >> magnitude),
            ))
        }
        _ => SimTime::MAX,
    }
}

/// Pushes a batch onto both the queue and the model. The item of every
/// queue entry is the seq the model assigned, so a drain checks both.
/// Half the batches are sorted (one run); the rest step back in time at
/// random and split into several runs.
fn push_arb_batch(rng: &mut SimRng, q: &mut EventQueue<u64>, model: &mut HeapModel, base: SimTime) {
    let sorted = rng.gen_bool(0.5);
    let mut t = base;
    let times: Vec<SimTime> = (0..rng.gen_range(0..40usize))
        .map(|_| {
            t = if sorted {
                arb_time(rng, t)
            } else {
                arb_time(rng, base)
            };
            t
        })
        .collect();
    let times_len = times.len();
    let seqs: Vec<u64> = times.iter().map(|&t| model.push(t)).collect();
    assert_eq!(q.push_batch(times.into_iter().zip(seqs)), times_len);
    assert_eq!(q.scheduled_total(), model.next_seq);
}

/// Pushes a generated run of sorted times onto both the queue and the
/// model. Like [`arb_time`]'s near-`base` draws, most entries tie with
/// pending entries of other runs, buffered and generated alike.
fn push_arb_run(rng: &mut SimRng, q: &mut EventQueue<u64>, model: &mut HeapModel, base: SimTime) {
    let mut t = base;
    let entries: Vec<(SimTime, u64)> = (0..rng.gen_range(0..40usize))
        .map(|_| {
            t = arb_time(rng, t);
            (t, model.push(t))
        })
        .collect();
    let seq0 = model.next_seq - entries.len() as u64;
    assert_eq!(q.push_run("prop", entries.len(), entries), seq0);
    assert_eq!(q.scheduled_total(), model.next_seq);
}

/// Drains both to empty, entry for entry.
fn drain_against_model(q: &mut EventQueue<u64>, model: &mut HeapModel, case: u64) {
    while let Some((time, seq)) = model.pop() {
        let s = q.pop().expect("queue drained early");
        assert_eq!(
            (s.time, s.seq, s.item),
            (time, seq, seq),
            "case {case}: drain diverged"
        );
    }
    assert!(q.is_empty(), "case {case}: queue outlived the model");
}

/// The queue drains exactly like the heap model — seq-for-seq,
/// time-for-time — under random interleavings of single pushes, sorted and
/// unsorted batches, generated runs, pops, `pop_at` probes and `clear`.
/// The mix covers ties between buffered and generated runs, batches that
/// split into several runs, pushes that extend or reopen a drained run,
/// drained generated runs reused as buffered ones, and times up to
/// `SimTime::MAX`.
#[test]
fn event_queue_matches_heap_model_on_any_interleaving() {
    forall(150, |case, rng| {
        let mut q = EventQueue::new();
        let mut model = HeapModel::default();
        // The last popped instant: a real engine never schedules before
        // it, and aiming pushes at it makes ties with pending runs common.
        let mut frontier = SimTime::ZERO;
        for op in 0..rng.gen_range(50..500u32) {
            let roll = rng.gen_range(0..100u32);
            if roll < 35 {
                let want = model.pop();
                let got = q.pop().map(|s| (s.time, s.seq, s.item));
                assert_eq!(
                    got,
                    want.map(|(t, s)| (t, s, s)),
                    "case {case} op {op}: pop diverged"
                );
                if let Some((t, _)) = want {
                    frontier = t;
                }
            } else if roll < 45 {
                // pop_at: sometimes the due head, sometimes a miss.
                let t = match model.peek_time() {
                    Some(t) if rng.gen_bool(0.7) => t,
                    _ => arb_time(rng, frontier),
                };
                let want = model.pop_at(t);
                let got = q.pop_at(t).map(|s| (s.time, s.seq, s.item));
                assert_eq!(
                    got,
                    want.map(|(t, s)| (t, s, s)),
                    "case {case} op {op}: pop_at diverged"
                );
            } else if roll < 55 {
                push_arb_batch(rng, &mut q, &mut model, frontier);
            } else if roll < 64 {
                push_arb_run(rng, &mut q, &mut model, frontier);
            } else if roll < 65 {
                q.clear();
                model.heap.clear();
            } else {
                let t = arb_time(rng, frontier);
                let seq = model.push(t);
                assert_eq!(q.push(t, seq), seq, "case {case} op {op}: seq diverged");
            }
            assert_eq!(
                q.peek_time(),
                model.peek_time(),
                "case {case} op {op}: peek diverged"
            );
            assert_eq!(q.len(), model.heap.len(), "case {case} op {op}");
        }
        drain_against_model(&mut q, &mut model, case);
        assert_eq!(q.scheduled_total(), model.next_seq);
    });
}

/// Clearing mid-flight keeps the sequence counter, and the cleared queue
/// orders a fresh schedule exactly like the model.
#[test]
fn event_queue_clear_matches_heap_model() {
    forall(60, |case, rng| {
        let mut q = EventQueue::new();
        let mut model = HeapModel::default();
        for _ in 0..rng.gen_range(1..6u32) {
            push_arb_batch(rng, &mut q, &mut model, SimTime::ZERO);
            push_arb_run(rng, &mut q, &mut model, SimTime::ZERO);
        }
        for _ in 0..rng.gen_range(0..20u32) {
            let want = model.pop();
            assert_eq!(q.pop().map(|s| (s.time, s.seq)), want, "case {case}");
        }
        q.clear();
        model.heap.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.scheduled_total(), model.next_seq);
        for _ in 0..rng.gen_range(1..50u32) {
            if rng.gen_bool(0.2) {
                push_arb_batch(rng, &mut q, &mut model, SimTime::ZERO);
            } else {
                let t = arb_time(rng, SimTime::ZERO);
                let seq = model.push(t);
                assert_eq!(q.push(t, seq), seq, "case {case}");
            }
        }
        drain_against_model(&mut q, &mut model, case);
    });
}

/// Duration arithmetic is associative with respect to summation order.
#[test]
fn durations_sum_in_any_order() {
    forall(200, |case, rng| {
        let mut nanos: Vec<u64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(0..1_000_000_000u64))
            .collect();
        let forward: SimDuration = nanos.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        nanos.reverse();
        let backward: SimDuration = nanos.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        assert_eq!(forward, backward, "case {case}");
    });
}

/// Seed-tree streams are stable and label-independent.
#[test]
fn seed_tree_is_pure() {
    forall(500, |case, rng| {
        let seed: u64 = rng.gen();
        let len = rng.gen_range(1..20usize);
        let label: String = (0..len)
            .map(|_| {
                let c = rng.gen_range(0..27u32);
                if c == 26 {
                    '/'
                } else {
                    char::from(b'a' + c as u8)
                }
            })
            .collect();
        let a = SeedTree::new(seed).derive(&label);
        let b = SeedTree::new(seed).derive(&label);
        assert_eq!(a, b, "case {case}: label {label:?}");
    });
}

// ------------------------------------------------------------- energy ----

/// Splitting an interval never changes the integral:
/// E(a, c) = E(a, b) + E(b, c).
#[test]
fn power_trace_integral_is_additive() {
    forall(200, |case, rng| {
        let mut t = SimTime::ZERO;
        let mut trace = PowerTrace::new(t, Power::from_milliwatts(100.0));
        for _ in 0..rng.gen_range(1..40usize) {
            t += SimDuration::from_micros(rng.gen_range(1..1_000u64));
            trace.set(
                t,
                Power::from_milliwatts(f64::from(rng.gen_range(0..10_000u32))),
            );
        }
        let end = t + SimDuration::from_micros(1);
        trace.finish(end);
        let split = rng.gen_range(0..1_000_000u64);
        let mid = SimTime::from_nanos(split % end.as_nanos().max(1));
        let whole = trace.energy().as_microjoules();
        let parts = trace.energy_between(SimTime::ZERO, mid).as_microjoules()
            + trace.energy_between(mid, end).as_microjoules();
        assert!(
            (whole - parts).abs() < 1e-6,
            "case {case}: {whole} vs {parts}"
        );
    });
}

/// Ledger merge is addition: total(a ∪ b) = total(a) + total(b).
#[test]
fn ledger_merge_adds() {
    forall(200, |case, rng| {
        let devices = Device::ALL;
        let routines = Routine::ALL;
        let mut a = EnergyLedger::new();
        let mut b = EnergyLedger::new();
        for i in 0..rng.gen_range(0..40usize) {
            let d = rng.gen_range(0..4usize);
            let r = rng.gen_range(0..5usize);
            let uj = rng.gen_range(0..1_000_000u32);
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.charge(
                devices[d],
                routines[r],
                Energy::from_microjoules(f64::from(uj)),
            );
        }
        let sum = a.total() + b.total();
        let mut merged = a.clone();
        merged.merge(&b);
        assert!(
            (merged.total().as_microjoules() - sum.as_microjoules()).abs() < 1e-6,
            "case {case}"
        );
    });
}

/// The ledger as the `BTreeMap` it was before it became a dense array:
/// the oracle for cell order, absent-vs-zero cells, equality and the
/// summation order of every total.
#[derive(Clone, Default, PartialEq)]
struct MapLedger {
    cells: BTreeMap<(Device, Routine), Energy>,
}

impl MapLedger {
    fn charge(&mut self, device: Device, routine: Routine, energy: Energy) {
        *self.cells.entry((device, routine)).or_insert(Energy::ZERO) += energy;
    }

    fn routine_total(&self, routine: Routine) -> Energy {
        self.cells
            .iter()
            .filter(|((_, r), _)| *r == routine)
            .map(|(_, &e)| e)
            .sum()
    }

    fn device_total(&self, device: Device) -> Energy {
        self.cells
            .iter()
            .filter(|((d, _), _)| *d == device)
            .map(|(_, &e)| e)
            .sum()
    }

    fn total(&self) -> Energy {
        self.cells.values().copied().sum()
    }

    fn merge(&mut self, other: &MapLedger) {
        for (&key, &e) in &other.cells {
            *self.cells.entry(key).or_insert(Energy::ZERO) += e;
        }
    }
}

/// A random cell and a charge for it: zero one time in eight, else a
/// magnitude from nanojoules to kilojoules, so summation order shows in
/// the low bits of every total.
fn arb_charge(rng: &mut SimRng) -> (Device, Routine, Energy) {
    let d = Device::ALL[rng.gen_range(0..4usize)];
    let r = Routine::ALL[rng.gen_range(0..5usize)];
    let uj = if rng.gen_range(0..8u32) == 0 {
        0.0
    } else {
        rng.gen::<f64>() * 10f64.powi(rng.gen_range(-3..10i32))
    };
    (d, r, Energy::from_microjoules(uj))
}

/// Asserts the dense ledger reads exactly like the map, bit for bit.
fn assert_ledger_matches(dense: &EnergyLedger, map: &MapLedger, case: u64) {
    let bits = |e: Energy| e.as_microjoules().to_bits();
    let dense_cells: Vec<(Device, Routine, u64)> =
        dense.iter().map(|(d, r, e)| (d, r, bits(e))).collect();
    let map_cells: Vec<(Device, Routine, u64)> = map
        .cells
        .iter()
        .map(|(&(d, r), &e)| (d, r, bits(e)))
        .collect();
    assert_eq!(dense_cells, map_cells, "case {case}: cells diverged");
    for d in Device::ALL {
        assert_eq!(
            bits(dense.device_total(d)),
            bits(map.device_total(d)),
            "case {case}"
        );
        for r in Routine::ALL {
            let want = map.cells.get(&(d, r)).copied().unwrap_or(Energy::ZERO);
            assert_eq!(bits(dense.cell(d, r)), bits(want), "case {case}");
        }
    }
    for r in Routine::ALL {
        assert_eq!(
            bits(dense.routine_total(r)),
            bits(map.routine_total(r)),
            "case {case}"
        );
    }
    assert_eq!(bits(dense.total()), bits(map.total()), "case {case}");
}

/// The dense ledger matches the map oracle on random charge sequences:
/// same cells in the same order, bitwise-equal totals, the same merge,
/// and the same equality, including a zero charge to an absent cell.
#[test]
fn ledger_matches_map_oracle() {
    forall(300, |case, rng| {
        let (mut a, mut b) = (EnergyLedger::new(), EnergyLedger::new());
        let (mut ma, mut mb) = (MapLedger::default(), MapLedger::default());
        for i in 0..rng.gen_range(0..60usize) {
            let (d, r, e) = arb_charge(rng);
            if i % 3 == 0 {
                b.charge(d, r, e);
                mb.charge(d, r, e);
            } else {
                a.charge(d, r, e);
                ma.charge(d, r, e);
            }
        }
        assert_ledger_matches(&a, &ma, case);
        assert_ledger_matches(&b, &mb, case);
        assert_eq!(a == b, ma == mb, "case {case}: equality diverged");

        let (d, r, _) = arb_charge(rng);
        let (mut a0, mut ma0) = (a.clone(), ma.clone());
        a0.charge(d, r, Energy::ZERO);
        ma0.charge(d, r, Energy::ZERO);
        assert_eq!(
            a0 == a,
            ma0 == ma,
            "case {case}: zero-charge equality diverged"
        );

        a.merge(&b);
        ma.merge(&mb);
        assert_ledger_matches(&a, &ma, case);
    });
}

// ------------------------------------------------------------ kernels ----

/// Builds a random JSON document of bounded depth.
fn arb_json(rng: &mut SimRng, depth: u32) -> Json {
    let pick = if depth == 0 {
        rng.gen_range(0..4u32)
    } else {
        rng.gen_range(0..6u32)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => {
            let x = rng.gen_range(-1e12..1e12f64);
            Json::Number((x * 1e4).round() / 1e4)
        }
        3 => {
            let len = rng.gen_range(0..20usize);
            Json::String(
                (0..len)
                    .map(|_| char::from(rng.gen_range(b' '..=b'~')))
                    .collect(),
            )
        }
        4 => Json::Array(
            (0..rng.gen_range(0..6usize))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let klen = rng.gen_range(1..8usize);
                    let key: String = (0..klen)
                        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
                        .collect();
                    (key, arb_json(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// Any JSON document we can build round-trips through text.
#[test]
fn json_round_trips() {
    forall(300, |case, rng| {
        let doc = arb_json(rng, 3);
        let text = doc.to_text();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, doc, "case {case}");
    });
}

/// Any well-formed CoAP message round-trips through the wire format.
#[test]
fn coap_round_trips() {
    forall(300, |case, rng| {
        let mut number = 0u16;
        let mut options = Vec::new();
        for _ in 0..rng.gen_range(0..6usize) {
            let delta = rng.gen_range(1..700u16);
            let vlen = rng.gen_range(0..300usize);
            number = number.saturating_add(delta);
            options.push(CoapOption {
                number,
                value: (0..vlen).map(|_| rng.gen()).collect(),
            });
        }
        let msg = CoapMessage {
            mtype: CoapType::NonConfirmable,
            code: CoapCode::CONTENT,
            message_id: rng.gen(),
            token: (0..rng.gen_range(0..=8usize)).map(|_| rng.gen()).collect(),
            options,
            payload: (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect(),
        };
        let back = CoapMessage::decode(&msg.encode()).expect("decodes");
        assert_eq!(back, msg, "case {case}");
    });
}

/// The JPEG pipeline round-trips any image above a quality floor, and the
/// decoder never panics on its own encoder's output.
#[test]
fn jpeg_round_trips_with_bounded_loss() {
    forall(40, |case, rng| {
        let w = rng.gen_range(8..40usize);
        let h = rng.gen_range(8..40usize);
        let quality = rng.gen_range(30..=95u8);
        let mut x: u64 = rng.gen::<u64>() | 1;
        let pixels: Vec<u8> = (0..w * h)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        let decoded = jpeg::decode(&jpeg::encode(&pixels, w, h, quality)).expect("decodes");
        assert_eq!(decoded.len(), pixels.len(), "case {case}");
        // Pure noise is the worst case for a DCT codec; demand only a
        // sanity floor.
        let psnr = jpeg::psnr(&pixels, &decoded);
        assert!(psnr > 10.0, "case {case}: psnr {psnr}");
    });
}

/// The IDCT inverts the FDCT for arbitrary blocks.
#[test]
fn idct_inverts_fdct() {
    forall(300, |case, rng| {
        let mut block = [0.0f64; 64];
        for v in &mut block {
            *v = rng.gen_range(-128.0..128.0f64);
        }
        let back = jpeg::idct(&jpeg::fdct(&block));
        for (a, b) in block.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-6, "case {case}: {a} vs {b}");
        }
    });
}

/// Content-defined chunking partitions the input exactly, within size
/// bounds.
#[test]
fn chunking_partitions_any_input() {
    forall(100, |case, rng| {
        let data: Vec<u8> = (0..rng.gen_range(0..8_000usize))
            .map(|_| rng.gen())
            .collect();
        let cfg = ChunkConfig::default();
        let chunks = chunk(&data, &cfg);
        let mut pos = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.offset, pos, "case {case}");
            assert!(c.len <= cfg.max_chunk, "case {case}");
            if i + 1 != chunks.len() {
                assert!(c.len >= cfg.min_chunk, "case {case}");
            }
            pos += c.len;
        }
        assert_eq!(pos, data.len(), "case {case}");
    });
}

// ------------------------------------------------------------ sensors ----

/// The sensor layer as it was before the world owned each generator once:
/// one boxed [`SignalSource`] per sensor behind a `BTreeMap`, closures over
/// `Rc<RefCell<…>>`-shared generators, and a driver that quantizes by
/// payload kind and keeps its own sequence number. The oracle every
/// [`PhysicalWorld::read`] below is checked against.
mod old_sensor_path {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use iotse::sensors::catalog;
    use iotse::sensors::reading::{SampleValue, SensorSample};
    use iotse::sensors::signal::audio::AudioGenerator;
    use iotse::sensors::signal::ecg::EcgGenerator;
    use iotse::sensors::signal::environment::{EnvironmentGenerator, Quantity};
    use iotse::sensors::signal::fingerprint::FingerprintScanner;
    use iotse::sensors::signal::gait::{GaitGenerator, GRAVITY};
    use iotse::sensors::signal::image::{ImageGenerator, LOW_RES};
    use iotse::sensors::signal::seismic::SeismicGenerator;
    use iotse::sensors::spec::{PayloadKind, SensorSpec};
    use iotse::sensors::{SensorId, WorldConfig};
    use iotse::sim::rng::SeedTree;
    use iotse::sim::time::SimTime;

    pub trait SignalSource {
        fn sample(&mut self, t: SimTime) -> SampleValue;
    }

    struct FnSource<F: FnMut(SimTime) -> SampleValue>(F);

    impl<F: FnMut(SimTime) -> SampleValue> SignalSource for FnSource<F> {
        fn sample(&mut self, t: SimTime) -> SampleValue {
            (self.0)(t)
        }
    }

    fn through_register(x: f64) -> f64 {
        let counts = (x * 1e4).round();
        let counts = counts.clamp(f64::from(i32::MIN), f64::from(i32::MAX));
        counts / 1e4
    }

    pub struct SensorDriver {
        spec: SensorSpec,
        source: Box<dyn SignalSource>,
        seq: u64,
    }

    impl SensorDriver {
        pub fn read(&mut self, t: SimTime) -> SensorSample {
            let value = match (self.source.sample(t), self.spec.payload) {
                (SampleValue::Scalar(x), PayloadKind::Int | PayloadKind::Double) => {
                    SampleValue::Scalar(through_register(x))
                }
                (SampleValue::Triple(v), _) => SampleValue::Triple(v.map(through_register)),
                (other, _) => other,
            };
            let sample = SensorSample {
                sensor: self.spec.id,
                seq: self.seq,
                acquired_at: t,
                value,
            };
            self.seq += 1;
            sample
        }
    }

    /// The driver map, built in the old world's generator order.
    pub fn drivers(seeds: &SeedTree, config: &WorldConfig) -> BTreeMap<SensorId, SensorDriver> {
        let gait = Rc::new(RefCell::new(GaitGenerator::new(seeds, config.gait)));
        let seismic = Rc::new(RefCell::new(SeismicGenerator::new(
            seeds,
            0.02,
            config.quakes.clone(),
        )));
        let ecg = Rc::new(RefCell::new(EcgGenerator::new(
            seeds,
            config.ecg,
            config.horizon,
        )));
        let audio = Rc::new(RefCell::new(AudioGenerator::new(
            seeds,
            config.utterance_count,
            config.horizon,
        )));
        let camera = Rc::new(RefCell::new(ImageGenerator::new(
            seeds, LOW_RES.0, LOW_RES.1,
        )));
        let scanner = Rc::new(RefCell::new(FingerprintScanner::new(seeds)));

        let mut drivers = BTreeMap::new();
        let mut add = |id: SensorId, source: Box<dyn SignalSource>| {
            let spec = catalog::spec(id);
            drivers.insert(
                id,
                SensorDriver {
                    spec,
                    source,
                    seq: 0,
                },
            );
        };
        for (id, q) in [
            (SensorId::S1, Quantity::PressureHpa),
            (SensorId::S2, Quantity::TemperatureC),
            (SensorId::S5, Quantity::AirQuality),
            (SensorId::S7, Quantity::LightLux),
            (SensorId::S9, Quantity::DistanceM),
        ] {
            let mut env = EnvironmentGenerator::new(seeds, q);
            add(
                id,
                Box::new(FnSource(move |t| SampleValue::Scalar(env.sample_scalar(t)))),
            );
        }
        add(
            SensorId::S4,
            Box::new(FnSource(move |t| {
                let g = gait.borrow_mut().sample_triple(t);
                let s = seismic.borrow().value_at(t);
                SampleValue::Triple([g[0] + s[0], g[1] + s[1], g[2] + (s[2] - GRAVITY)])
            })),
        );
        add(
            SensorId::S6,
            Box::new(FnSource(move |t| {
                SampleValue::Scalar(ecg.borrow().value_at(t))
            })),
        );
        add(
            SensorId::S8,
            Box::new(FnSource(move |t| {
                SampleValue::Scalar(audio.borrow().value_at(t))
            })),
        );
        let people = config.enrolled_people.max(1);
        let mut scan_seq = 0u32;
        add(
            SensorId::S3,
            Box::new(FnSource(move |_t| {
                let person = scan_seq % people;
                scan_seq += 1;
                SampleValue::Bytes(scanner.borrow_mut().scan(person).encode())
            })),
        );
        let mut frame_seq = 0u64;
        add(
            SensorId::S10,
            Box::new(FnSource(move |_t| {
                let frame = camera.borrow_mut().frame(frame_seq);
                frame_seq += 1;
                SampleValue::Bytes(frame.pixels)
            })),
        );
        drivers
    }
}

/// A sample's value down to the bit, so `-0.0` and NaN payloads compare
/// exactly.
#[derive(Debug, PartialEq)]
enum ValueBits<'a> {
    Scalar(u64),
    Triple([u64; 3]),
    Bytes(&'a [u8]),
}

fn value_bits(v: &iotse::sensors::SampleValue) -> ValueBits<'_> {
    use iotse::sensors::SampleValue;
    match v {
        SampleValue::Scalar(x) => ValueBits::Scalar(x.to_bits()),
        SampleValue::Triple(a) => ValueBits::Triple(a.map(f64::to_bits)),
        SampleValue::Bytes(b) => ValueBits::Bytes(b),
    }
}

/// The flattened world reads exactly like the old driver map: for any
/// seed, any world config (quakes on or off, one or four enrolled people)
/// and any interleaving of all ten sensors at non-decreasing times, every
/// sample has the same sensor, sequence number, instant and value bits.
#[test]
fn physical_world_matches_the_old_driver_path() {
    use iotse::sensors::signal::seismic::Quake;

    forall(40, |case, rng| {
        let seeds = SeedTree::new(rng.gen_range(0..10_000u64));
        // Up to two quakes, back to back or apart (they may not overlap).
        let mut onset = SimTime::ZERO;
        let quakes = (0..rng.gen_range(0..3u32))
            .map(|_| {
                let q = Quake {
                    onset: onset + SimDuration::from_millis(rng.gen_range(0..3_000u64)),
                    duration: SimDuration::from_millis(rng.gen_range(100..2_000u64)),
                    peak: rng.gen_range(1.0..9.0),
                };
                onset = q.onset + q.duration;
                q
            })
            .collect();
        let config = WorldConfig {
            quakes,
            enrolled_people: if rng.gen_bool(0.5) { 1 } else { 4 },
            ..WorldConfig::default()
        };
        let mut oracle = old_sensor_path::drivers(&seeds, &config);
        let mut world = PhysicalWorld::new(&seeds, config);
        let mut t = SimTime::ZERO;
        for _ in 0..rng.gen_range(50..200u32) {
            // Ties, sub-millisecond steps and jumps of up to a second.
            t += match rng.gen_range(0..4u32) {
                0 => SimDuration::ZERO,
                1 => SimDuration::from_micros(rng.gen_range(1..1_000u64)),
                2 => SimDuration::from_millis(rng.gen_range(1..20u64)),
                _ => SimDuration::from_millis(rng.gen_range(20..1_000u64)),
            };
            let id = SensorId::ALL[rng.gen_range(0..10usize)];
            let want = oracle.get_mut(&id).expect("ten drivers").read(t);
            let Ok(got) = world.read(id, t);
            assert_eq!(
                (got.sensor, got.seq, got.acquired_at),
                (want.sensor, want.seq, want.acquired_at),
                "case {case}: {id} at {t}"
            );
            assert_eq!(
                value_bits(&got.value),
                value_bits(&want.value),
                "case {case}: {id} at {t}"
            );
        }
    });
}

// ----------------------------------------------------------- platform ----

/// Whatever the seed and scheme, an instrumented run's span tree is
/// well-formed: exactly one root, parents precede and contain their
/// children in time, every span exits at or after its enter, every charge
/// is reachable from the root, and folding the weights reproduces the
/// ledger total exactly (no tolerance).
#[test]
fn span_trees_are_well_formed_for_any_seed() {
    use iotse::sim::trace::SpanId;
    let schemes = [
        Scheme::Baseline,
        Scheme::Batching,
        Scheme::Com,
        Scheme::Beam,
        Scheme::Bcom,
    ];
    forall(10, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let scheme = schemes[case as usize % schemes.len()];
        let result = Scenario::new(scheme, catalog::apps(&[AppId::A2], seed))
            .windows(1)
            .seed(seed)
            .with_trace()
            .run();
        let trace = &result.trace;
        let spans = trace.spans();
        assert!(!spans.is_empty(), "case {case}: no spans recorded");
        let mut roots = 0;
        for (i, span) in spans.iter().enumerate() {
            let exit = span
                .exit
                .unwrap_or_else(|| panic!("case {case} {scheme}: span {i} left open"));
            assert!(
                exit >= span.enter,
                "case {case} {scheme}: span {i} exits before entering"
            );
            assert!(
                span.weight >= 0.0,
                "case {case} {scheme}: span {i} has negative energy"
            );
            match span.parent {
                None => roots += 1,
                Some(p) => {
                    let p = p.index().expect("recorded parents are live ids");
                    assert!(p < i, "case {case} {scheme}: parent enters after child");
                    assert!(
                        spans[p].enter <= span.enter && spans[p].exit.expect("closed") >= exit,
                        "case {case} {scheme}: span {i} not nested inside its parent"
                    );
                }
            }
            // Reachability: every span's stack starts at the single root.
            assert!(
                trace
                    .stack(SpanId::from_index(i))
                    .starts_with("iotse_core_run"),
                "case {case} {scheme}: span {i} not reachable from the root"
            );
        }
        assert_eq!(roots, 1, "case {case} {scheme}: expected exactly one root");
        // The fold is exact, not approximate: left-to-right weight sum is
        // bitwise the ledger total.
        let fold = iotse::energy::flame::fold(trace);
        assert_eq!(
            fold.total_microjoules(),
            result.total_energy().as_microjoules(),
            "case {case} {scheme}: span fold diverged from the ledger"
        );
    });
}

/// Whatever the seed, a faulted scenario is a pure function of its inputs:
/// the same fault scripts replay to an identical `RunResult` (and identical
/// `FaultStats`) across back-to-back runs and across fleet `--jobs` levels.
#[test]
fn fault_schedules_are_deterministic_for_any_seed() {
    use iotse::core::runner::run_fleet;
    let schemes = [
        Scheme::Baseline,
        Scheme::Batching,
        Scheme::Com,
        Scheme::Beam,
        Scheme::Bcom,
    ];
    forall(10, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let script_seed = rng.gen::<u64>();
        let scheme = schemes[case as usize % schemes.len()];
        let scripts = |fault_seed: u64| {
            vec![
                FaultScript::new(
                    FaultKind::SensorDropout { probability: 0.4 },
                    SimTime::ZERO,
                    SimDuration::from_millis(600),
                )
                .seeded(fault_seed),
                FaultScript::new(
                    FaultKind::InterruptStorm { rate_hz: 500 },
                    SimTime::from_millis(400),
                    SimDuration::from_millis(400),
                )
                .seeded(fault_seed ^ 1),
            ]
        };
        let faulted = |fault_seed: u64, jobs: usize| {
            run_fleet(
                vec![Scenario::new(scheme, catalog::apps(&[AppId::A2], seed))
                    .windows(1)
                    .seed(seed)
                    .faults(scripts(fault_seed))],
                jobs,
            )
            .pop()
            .expect("one result")
        };
        let first = faulted(script_seed, 1);
        assert!(
            first.faults.faults_injected > 0,
            "case {case} seed {seed}: no faults fired"
        );
        for jobs in [1, 4, 8] {
            assert_eq!(
                first,
                faulted(script_seed, jobs),
                "case {case} seed {seed} {scheme}: schedule drifted at --jobs {jobs}"
            );
        }
    });
}

/// Different fault-script seeds draw from disjoint RNG streams: the same
/// scenario under the same dropout window but a different script seed drops
/// a different set of samples (distinct schedules, not just distinct
/// counters by luck — the full results must differ).
#[test]
fn distinct_fault_seeds_give_distinct_schedules() {
    forall(10, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let a = rng.gen::<u64>();
        let b = a ^ rng.gen_range(1..u64::MAX);
        let run = |fault_seed: u64| {
            Scenario::new(Scheme::Baseline, catalog::apps(&[AppId::A2], seed))
                .windows(1)
                .seed(seed)
                .fault(
                    FaultScript::new(
                        FaultKind::SensorDropout { probability: 0.5 },
                        SimTime::ZERO,
                        SimDuration::from_secs(1),
                    )
                    .seeded(fault_seed),
                )
                .run()
        };
        let ra = run(a);
        let rb = run(b);
        assert!(
            ra.faults.samples_dropped > 0 && rb.faults.samples_dropped > 0,
            "case {case} seed {seed}: dropout never fired"
        );
        assert_ne!(
            ra, rb,
            "case {case} seed {seed}: fault seeds {a} and {b} gave one schedule"
        );
    });
}

/// Whatever the seed, the executor's structural counters equal the Table II
/// derivation, and energy orderings hold.
#[test]
fn executor_counters_hold_for_any_seed() {
    forall(12, |case, rng| {
        let seed = rng.gen_range(0..5_000u64);
        let run = |scheme| {
            Scenario::new(scheme, catalog::apps(&[AppId::A2], seed))
                .windows(1)
                .seed(seed)
                .run()
        };
        let baseline = run(Scheme::Baseline);
        assert_eq!(baseline.interrupts, 1000, "case {case} seed {seed}");
        assert_eq!(
            baseline.bytes_transferred, 12_000,
            "case {case} seed {seed}"
        );
        let batching = run(Scheme::Batching);
        assert_eq!(batching.interrupts, 1, "case {case} seed {seed}");
        let com = run(Scheme::Com);
        assert!(
            batching.total_energy() < baseline.total_energy(),
            "case {case} seed {seed}"
        );
        assert!(
            com.total_energy() < batching.total_energy(),
            "case {case} seed {seed}"
        );
    });
}

// -------------------------------------------------------------- trace ----

/// The trace log as it stood before the field arena: every span and event
/// owns a `FieldList` (three pairs inline, then a heap spill) and labels
/// intern through a `BTreeMap<String, u32>` beside a second copy of each
/// string. Kept as the oracle the arena log is checked against.
mod old_trace_log {
    use std::collections::BTreeMap;

    use iotse::sim::time::SimTime;
    use iotse::sim::trace::TraceKind;

    // `Label` and `FieldValue` share the real types' names and shapes, so
    // their `Debug` forms compare label numbers across the two logs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Label(u32);

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum FieldValue {
        U64(u64),
        I64(i64),
        Str(Label),
        Time(SimTime),
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SpanId(pub u32);

    const FIELDS_INLINE: usize = 3;
    const FIELD_PAD: (Label, FieldValue) = (Label(u32::MAX), FieldValue::U64(0));

    #[derive(Debug, Clone)]
    pub enum FieldList {
        Inline {
            len: u8,
            buf: [(Label, FieldValue); FIELDS_INLINE],
        },
        Heap(Vec<(Label, FieldValue)>),
    }

    impl FieldList {
        fn new() -> Self {
            FieldList::Inline {
                len: 0,
                buf: [FIELD_PAD; FIELDS_INLINE],
            }
        }

        fn push(&mut self, pair: (Label, FieldValue)) {
            match self {
                FieldList::Inline { len, buf } => {
                    if (*len as usize) < FIELDS_INLINE {
                        buf[*len as usize] = pair;
                        *len += 1;
                    } else {
                        let mut spilled = buf.to_vec();
                        spilled.push(pair);
                        *self = FieldList::Heap(spilled);
                    }
                }
                FieldList::Heap(v) => v.push(pair),
            }
        }

        pub fn as_slice(&self) -> &[(Label, FieldValue)] {
            match self {
                FieldList::Inline { len, buf } => &buf[..*len as usize],
                FieldList::Heap(v) => v,
            }
        }
    }

    pub struct Span {
        pub parent: Option<SpanId>,
        pub kind: TraceKind,
        pub label: Label,
        pub enter: SimTime,
        pub exit: Option<SimTime>,
        pub weight: f64,
        pub fields: FieldList,
    }

    pub struct TraceEvent {
        pub time: SimTime,
        pub kind: TraceKind,
        pub span: Option<SpanId>,
        pub source: Label,
        pub fields: FieldList,
    }

    #[derive(Default)]
    pub struct TraceLog {
        enabled: bool,
        strings: Vec<String>,
        index: BTreeMap<String, u32>,
        pub spans: Vec<Span>,
        pub events: Vec<TraceEvent>,
        open: Vec<SpanId>,
    }

    impl TraceLog {
        pub fn enabled() -> Self {
            TraceLog {
                enabled: true,
                ..TraceLog::default()
            }
        }

        pub fn set_enabled(&mut self, enabled: bool) {
            self.enabled = enabled;
        }

        fn intern_label(&mut self, s: &str) -> Label {
            if let Some(&i) = self.index.get(s) {
                return Label(i);
            }
            let i = self.strings.len() as u32;
            self.strings.push(s.to_string());
            self.index.insert(s.to_string(), i);
            Label(i)
        }

        pub fn label(&self, label: Label) -> &str {
            self.strings
                .get(label.0 as usize)
                .map_or("<unknown-label>", String::as_str)
        }

        pub fn enter_span(&mut self, time: SimTime, kind: TraceKind, label: &str) -> SpanId {
            if !self.enabled {
                return SpanId(u32::MAX);
            }
            let label = self.intern_label(label);
            let id = SpanId(self.spans.len() as u32);
            self.spans.push(Span {
                parent: self.open.last().copied(),
                kind,
                label,
                enter: time,
                exit: None,
                weight: 0.0,
                fields: FieldList::new(),
            });
            self.open.push(id);
            id
        }

        pub fn exit_span(&mut self, id: SpanId, time: SimTime) {
            if !self.enabled || id.0 == u32::MAX {
                return;
            }
            assert!(self.open.last() == Some(&id), "spans must exit LIFO");
            self.open.pop();
            self.spans[id.0 as usize].exit = Some(time);
        }

        pub fn charge_span(&mut self, id: SpanId, weight: f64) {
            if !self.enabled || id.0 == u32::MAX {
                return;
            }
            self.spans[id.0 as usize].weight += weight;
        }

        pub fn span_field(&mut self, id: SpanId, name: &str, value: FieldValue) {
            if !self.enabled || id.0 == u32::MAX {
                return;
            }
            let name = self.intern_label(name);
            self.spans[id.0 as usize].fields.push((name, value));
        }

        pub fn intern(&mut self, s: &str) -> Label {
            if !self.enabled {
                return Label(u32::MAX);
            }
            self.intern_label(s)
        }

        pub fn event(
            &mut self,
            time: SimTime,
            kind: TraceKind,
            source: &str,
            fields: &[(&str, FieldValue)],
        ) {
            if !self.enabled {
                return;
            }
            let source = self.intern_label(source);
            let mut list = FieldList::new();
            for &(name, value) in fields {
                let name = self.intern_label(name);
                list.push((name, value));
            }
            self.events.push(TraceEvent {
                time,
                kind,
                span: self.open.last().copied(),
                source,
                fields: list,
            });
        }

        pub fn record(
            &mut self,
            time: SimTime,
            kind: TraceKind,
            source: impl Into<String>,
            detail: impl Into<String>,
        ) {
            if !self.enabled {
                return;
            }
            let detail: String = detail.into();
            let detail = self.intern_label(&detail);
            self.event_with_msg(time, kind, &source.into(), detail);
        }

        pub fn record_with(
            &mut self,
            time: SimTime,
            kind: TraceKind,
            source: &str,
            detail: impl FnOnce() -> String,
        ) {
            if !self.enabled {
                return;
            }
            let detail = detail();
            let detail = self.intern_label(&detail);
            self.event_with_msg(time, kind, source, detail);
        }

        fn event_with_msg(&mut self, time: SimTime, kind: TraceKind, source: &str, msg: Label) {
            let source = self.intern_label(source);
            let name = self.intern_label("msg");
            let mut fields = FieldList::new();
            fields.push((name, FieldValue::Str(msg)));
            self.events.push(TraceEvent {
                time,
                kind,
                span: self.open.last().copied(),
                source,
                fields,
            });
        }

        pub fn render(&self, value: FieldValue) -> String {
            match value {
                FieldValue::U64(v) => v.to_string(),
                FieldValue::I64(v) => v.to_string(),
                FieldValue::Str(l) => self.label(l).to_string(),
                FieldValue::Time(t) => t.to_string(),
            }
        }

        pub fn detail(&self, event: &TraceEvent) -> String {
            match event.fields.as_slice() {
                [(name, FieldValue::Str(msg))] if self.label(*name) == "msg" => {
                    self.label(*msg).to_string()
                }
                fields => fields
                    .iter()
                    .map(|&(name, value)| format!("{}={}", self.label(name), self.render(value)))
                    .collect::<Vec<_>>()
                    .join(" "),
            }
        }

        fn depth(&self, i: usize) -> usize {
            let mut depth = 0;
            let mut cursor = Some(i);
            while let Some(i) = cursor {
                depth += 1;
                cursor = self.spans[i].parent.map(|p| p.0 as usize);
            }
            depth
        }

        /// `(spans, events, max_depth, total_weight)`, as `summary()`.
        pub fn summary(&self) -> (usize, usize, usize, f64) {
            let mut max_depth = 0;
            let mut total_weight = 0.0;
            for (i, span) in self.spans.iter().enumerate() {
                max_depth = max_depth.max(self.depth(i));
                total_weight += span.weight;
            }
            (self.spans.len(), self.events.len(), max_depth, total_weight)
        }

        pub fn clear(&mut self) {
            self.spans.clear();
            self.events.clear();
            self.open.clear();
        }
    }
}

// The arena log's records stay small: a span is 56 bytes, an event 32.
const _: () = assert!(std::mem::size_of::<iotse::sim::trace::Span>() <= 56);
const _: () = assert!(std::mem::size_of::<iotse::sim::trace::TraceEvent>() <= 32);

/// A field value drawn for both logs; strings are interned into each.
#[derive(Clone, Copy)]
enum ArbValue {
    U64(u64),
    I64(i64),
    Str(&'static str),
    Time(SimTime),
}

const TRACE_WORDS: [&str; 9] = [
    "iotse_sim_a",
    "iotse_sim_b",
    "msg",
    "k",
    "",
    "sensor",
    "a;b",
    "qu\"ote",
    "é",
];
const TRACE_KINDS: [TraceKind; 7] = [
    TraceKind::SensorRead,
    TraceKind::Interrupt,
    TraceKind::DataTransfer,
    TraceKind::Compute,
    TraceKind::PowerState,
    TraceKind::Scheme,
    TraceKind::Qos,
];

fn arb_word(rng: &mut SimRng) -> &'static str {
    TRACE_WORDS[rng.gen_range(0..TRACE_WORDS.len())]
}

fn arb_value(rng: &mut SimRng) -> ArbValue {
    match rng.gen_range(0..4u32) {
        0 => ArbValue::U64(rng.gen_range(0..1_000_000u64)),
        1 => ArbValue::I64(rng.gen_range(0..2_000u64) as i64 - 1_000),
        2 => ArbValue::Str(arb_word(rng)),
        _ => ArbValue::Time(SimTime::from_nanos(rng.gen_range(0..1_000_000u64))),
    }
}

/// The value in each log's terms, interning a string into both.
fn both_values(
    v: ArbValue,
    new: &mut TraceLog,
    old: &mut old_trace_log::TraceLog,
) -> (trace::FieldValue, old_trace_log::FieldValue) {
    use old_trace_log::FieldValue as Old;
    use trace::FieldValue as New;
    match v {
        ArbValue::U64(x) => (New::U64(x), Old::U64(x)),
        ArbValue::I64(x) => (New::I64(x), Old::I64(x)),
        ArbValue::Str(s) => (New::Str(new.intern(s)), Old::Str(old.intern(s))),
        ArbValue::Time(t) => (New::Time(t), Old::Time(t)),
    }
}

/// Asserts the two logs hold the same spans, events, fields, label numbers,
/// details and summary.
fn assert_logs_match(new: &TraceLog, old: &old_trace_log::TraceLog, case: u64) {
    let new_value = |v: trace::FieldValue| match v {
        trace::FieldValue::Str(l) => new.label(l).to_string(),
        trace::FieldValue::Time(t) => t.to_string(),
        trace::FieldValue::U64(x) => x.to_string(),
        trace::FieldValue::I64(x) => x.to_string(),
    };
    let new_fields = |f: trace::Fields| -> (String, Vec<(String, String)>) {
        let pairs = new.fields(f);
        let named = pairs
            .iter()
            .map(|&(n, v)| (new.label(n).to_string(), new_value(v)))
            .collect();
        (format!("{pairs:?}"), named)
    };
    let old_fields = |f: &old_trace_log::FieldList| -> (String, Vec<(String, String)>) {
        let pairs = f.as_slice();
        let named = pairs
            .iter()
            .map(|&(n, v)| (old.label(n).to_string(), old.render(v)))
            .collect();
        (format!("{pairs:?}"), named)
    };
    assert_eq!(
        new.spans().len(),
        old.spans.len(),
        "case {case}: span count"
    );
    for (i, (n, o)) in new.spans().iter().zip(&old.spans).enumerate() {
        assert_eq!(
            new.label(n.label),
            old.label(o.label),
            "case {case}: span {i}"
        );
        assert_eq!(format!("{:?}", n.label), format!("{:?}", o.label));
        assert_eq!((n.kind, n.enter, n.exit), (o.kind, o.enter, o.exit));
        assert_eq!(
            n.parent.and_then(|p| p.index()),
            o.parent.map(|p| p.0 as usize),
            "case {case}: span {i} parent"
        );
        assert_eq!(
            n.weight.to_bits(),
            o.weight.to_bits(),
            "case {case}: span {i}"
        );
        assert_eq!(n.fields.len(), o.fields.as_slice().len());
        assert_eq!(
            new_fields(n.fields),
            old_fields(&o.fields),
            "case {case}: span {i} fields"
        );
    }
    assert_eq!(
        new.events().len(),
        old.events.len(),
        "case {case}: event count"
    );
    for (i, (n, o)) in new.events().iter().zip(&old.events).enumerate() {
        assert_eq!((n.time, n.kind), (o.time, o.kind), "case {case}: event {i}");
        assert_eq!(n.span.and_then(|s| s.index()), o.span.map(|s| s.0 as usize));
        assert_eq!(format!("{:?}", n.source), format!("{:?}", o.source));
        assert_eq!(new.label(n.source), old.label(o.source));
        assert_eq!(
            new_fields(n.fields),
            old_fields(&o.fields),
            "case {case}: event {i} fields"
        );
        assert_eq!(
            new.detail(n),
            old.detail(o),
            "case {case}: event {i} detail"
        );
    }
    let s = new.summary();
    let (spans, events, max_depth, weight) = old.summary();
    assert_eq!(
        (s.spans, s.events, s.max_depth, s.total_weight.to_bits()),
        (spans, events, max_depth, weight.to_bits()),
        "case {case}: summary"
    );
}

/// Random interleavings of every recording call — fields added to a span
/// after a nested span or event included — leave the arena log and the
/// old `FieldList` log with equal contents.
#[test]
fn trace_log_matches_the_field_list_log_on_any_interleaving() {
    forall(300, |case, rng| {
        let mut new = TraceLog::enabled();
        let mut old = old_trace_log::TraceLog::enabled();
        // Open spans as both logs numbered them (sentinels while disabled).
        let mut open: Vec<(trace::SpanId, old_trace_log::SpanId)> = Vec::new();
        let mut now = SimTime::ZERO;
        let ops = rng.gen_range(1..300u32);
        for _ in 0..ops {
            now += SimDuration::from_nanos(rng.gen_range(0..1_000u64));
            let kind = TRACE_KINDS[rng.gen_range(0..TRACE_KINDS.len())];
            let recorded = new.spans().len();
            match rng.gen_range(0..100u32) {
                0..=19 => {
                    let label = arb_word(rng);
                    open.push((
                        new.enter_span(now, kind, label),
                        old.enter_span(now, kind, label),
                    ));
                }
                20..=34 => {
                    // A disabled log ignores exits, so a span it recorded
                    // stays on the stack until the log can close it.
                    if let Some(&(n, o)) = open.last() {
                        if new.is_enabled() || n == trace::SpanId::DISABLED {
                            open.pop();
                            new.exit_span(n, now);
                            old.exit_span(o, now);
                        }
                    }
                }
                35..=54 if recorded > 0 => {
                    // Any recorded span, open or closed, innermost or not.
                    let i = rng.gen_range(0..recorded);
                    let name = arb_word(rng);
                    let (n, o) = both_values(arb_value(rng), &mut new, &mut old);
                    new.span_field(trace::SpanId::from_index(i), name, n);
                    old.span_field(old_trace_log::SpanId(i as u32), name, o);
                }
                55..=59 if recorded > 0 => {
                    let i = rng.gen_range(0..recorded);
                    let w = rng.gen_range(0..1_000u64) as f64 / 7.0;
                    new.charge_span(trace::SpanId::from_index(i), w);
                    old.charge_span(old_trace_log::SpanId(i as u32), w);
                }
                60..=74 => {
                    let source = arb_word(rng);
                    let n_fields = rng.gen_range(0..6usize);
                    let mut new_fields = Vec::new();
                    let mut old_fields = Vec::new();
                    for _ in 0..n_fields {
                        let name = arb_word(rng);
                        let (n, o) = both_values(arb_value(rng), &mut new, &mut old);
                        new_fields.push((name, n));
                        old_fields.push((name, o));
                    }
                    new.event(now, kind, source, &new_fields);
                    old.event(now, kind, source, &old_fields);
                }
                75..=82 => {
                    let (source, detail) = (arb_word(rng), arb_word(rng));
                    new.record(now, kind, source, detail);
                    old.record(now, kind, source, detail);
                }
                83..=89 => {
                    let source = arb_word(rng);
                    let x = rng.gen_range(0..200u64);
                    new.record_with(now, kind, source, || format!("detail {x}"));
                    old.record_with(now, kind, source, || format!("detail {x}"));
                }
                90..=95 => {
                    let s = arb_word(rng);
                    assert_eq!(
                        format!("{:?}", new.intern(s)),
                        format!("{:?}", old.intern(s)),
                        "case {case}: intern({s:?})"
                    );
                }
                96..=97 => {
                    let on = !new.is_enabled();
                    new.set_enabled(on);
                    old.set_enabled(on);
                }
                _ => {
                    new.clear();
                    old.clear();
                    open.clear();
                }
            }
        }
        assert_logs_match(&new, &old, case);
        // Trimming changes capacity only.
        let mut trimmed = new.clone();
        trimmed.shrink_to_fit();
        assert_logs_match(&trimmed, &old, case);
    });
}
