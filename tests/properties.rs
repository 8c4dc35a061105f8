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
