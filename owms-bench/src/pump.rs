//! The traced pump: a [`Driver`] with `LoopbackBytesDriver`'s queue
//! discipline whose cores stay in `OutboundMode::Typed`, so the encode of
//! every message happens here, inside a span, next to spans around
//! `handle_frame`, `handle_timer` and a shadow decode of the same bytes.
//!
//! The shadow decode runs through a per-host `DecodeScratch` primed like
//! the core's own, so it costs what the decode inside `handle_frame`
//! costs; `handle_frame` self time is its span minus the shadow's.

use std::collections::BTreeMap;

use openwf_core::Spec;
use openwf_runtime::codec;
use openwf_runtime::driver::{LoopbackStats, ProblemHandle};
use openwf_runtime::{
    Action, ActionQueue, Driver, HostConfig, HostCore, Msg, OutboundMode, ProblemId, RuntimeParams,
    WorkflowEvent,
};
use openwf_simnet::{HostId, SimDuration, SimTime, TimerToken};
use openwf_wire::{DecodeScratch, VocabularyBudget};

use crate::spans::{SpanId, Spans};

/// Frames kept for the codec micro-timings; the first of a run.
const CORPUS_FRAMES: usize = 20_000;

enum Ev {
    Frame {
        from: HostId,
        to: HostId,
        bytes: Vec<u8>,
        wf: u64,
    },
    Timer {
        host: HostId,
        token: TimerToken,
        wf: u64,
    },
}

pub struct Pump {
    cores: Vec<HostCore>,
    /// Pending events by `(time, seq)`, as in `LoopbackBytesDriver`.
    queue: BTreeMap<(SimTime, u64), Ev>,
    seq: u64,
    now: SimTime,
    busy_until: Vec<SimTime>,
    latency: SimDuration,
    next_seq: u32,
    stats: LoopbackStats,
    events: Vec<(HostId, WorkflowEvent)>,
    shadow: Vec<DecodeScratch>,
    pub spans: Spans,
    /// Events put back because their host was busy, and the time that took.
    pub requeues: u64,
    pub requeue_ns: u64,
    /// The first delivered frames, for timing the codec alone.
    pub corpus: Vec<Vec<u8>>,
}

impl Pump {
    pub fn build(params: RuntimeParams, configs: Vec<HostConfig>) -> Self {
        let all: Vec<HostId> = (0..configs.len() as u32).map(HostId).collect();
        let cores: Vec<HostCore> = configs
            .into_iter()
            .enumerate()
            .map(|(i, cfg)| {
                let mut core = HostCore::new(cfg, params.clone());
                core.bind(HostId(i as u32));
                core.set_community(all.clone());
                core.set_outbound_mode(OutboundMode::Typed);
                core
            })
            .collect();
        let shadow = cores
            .iter()
            .map(|core| {
                let mut scratch = DecodeScratch::new();
                core.fragment_mgr().prime_cache(scratch.cache_mut());
                scratch
            })
            .collect();
        Pump {
            busy_until: vec![SimTime::ZERO; cores.len()],
            cores,
            queue: BTreeMap::new(),
            seq: 0,
            now: SimTime::ZERO,
            latency: openwf_simnet::ConstantLatency::default().0,
            next_seq: 0,
            stats: LoopbackStats::default(),
            events: Vec::new(),
            shadow,
            spans: Spans::new(),
            requeues: 0,
            requeue_ns: 0,
            corpus: Vec::new(),
        }
    }

    pub fn stats(&self) -> LoopbackStats {
        self.stats
    }

    pub fn events(&self) -> &[(HostId, WorkflowEvent)] {
        &self.events
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.queue.insert((at, self.seq), ev);
        self.seq += 1;
    }

    fn encode_and_send(
        &mut self,
        from: HostId,
        to: HostId,
        msg: &Msg,
        at: SimTime,
        parent: Option<SpanId>,
    ) {
        let wf = msg.trace_id();
        let bytes = self.spans.within("wire.encode", parent, wf, || {
            let mut bytes = Vec::new();
            codec::encode_msg(msg, &mut bytes);
            bytes
        });
        let at = if to == from { at } else { at + self.latency };
        self.schedule(
            at,
            Ev::Frame {
                from,
                to,
                bytes,
                wf,
            },
        );
    }

    fn apply(&mut self, host: HostId, queue: ActionQueue, parent: SpanId, wf: u64) {
        let charged = queue.charged();
        let effective_now = self.now + charged;
        if charged > SimDuration::ZERO {
            self.busy_until[host.0 as usize] = effective_now;
        }
        for action in queue {
            match action {
                Action::Send { to, msg } => {
                    self.encode_and_send(host, to, &msg, effective_now, Some(parent));
                }
                Action::SendBytes { to, bytes } => {
                    let at = if to == host {
                        effective_now
                    } else {
                        effective_now + self.latency
                    };
                    self.schedule(
                        at,
                        Ev::Frame {
                            from: host,
                            to,
                            bytes,
                            wf,
                        },
                    );
                }
                Action::SetTimer { delay, token } => {
                    self.schedule(effective_now + delay, Ev::Timer { host, token, wf });
                }
                Action::Event(event) => self.events.push((host, event)),
                // `Action` is non-exhaustive; an effect this pump cannot
                // perform would make its runs differ from the reference
                // driver's, which the output check reports.
                _ => {}
            }
        }
    }
}

impl Driver for Pump {
    fn hosts(&self) -> Vec<HostId> {
        (0..self.cores.len() as u32).map(HostId).collect()
    }

    fn core(&self, id: HostId) -> &HostCore {
        &self.cores[id.0 as usize]
    }

    fn core_mut(&mut self, id: HostId) -> &mut HostCore {
        &mut self.cores[id.0 as usize]
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn submit(&mut self, initiator: HostId, spec: Spec) -> ProblemHandle {
        let id = ProblemId::new(initiator, self.next_seq);
        self.next_seq += 1;
        let msg = Msg::Initiate { problem: id, spec };
        self.encode_and_send(initiator, initiator, &msg, self.now, None);
        ProblemHandle { id }
    }

    fn step(&mut self) -> bool {
        let entered = self.spans.now_ns();
        let Some((&key, _)) = self.queue.iter().next() else {
            return false;
        };
        let ev = self.queue.remove(&key).expect("peeked above");
        self.now = key.0;
        let (target, wf) = match &ev {
            Ev::Frame { to, wf, .. } => (*to, *wf),
            Ev::Timer { host, wf, .. } => (*host, *wf),
        };
        let free_at = self.busy_until[target.0 as usize];
        if free_at > self.now {
            // A busy host defers the event; far more of these than steps,
            // so they are totalled, not recorded one span each.
            self.schedule(free_at, ev);
            self.requeues += 1;
            self.requeue_ns += self.spans.now_ns() - entered;
            return true;
        }
        let step = self.spans.open_at("pump.step", entered, None, wf);
        match ev {
            Ev::Frame {
                from, to, bytes, ..
            } => {
                self.stats.frames_delivered += 1;
                self.stats.bytes_delivered += bytes.len() as u64;
                let scratch = &mut self.shadow[to.0 as usize];
                self.spans.within("wire.decode", Some(step), wf, || {
                    let decoded =
                        codec::decode_msg_with(&bytes, &mut VocabularyBudget::unlimited(), scratch);
                    std::hint::black_box(decoded.is_ok());
                });
                let now = self.now;
                let core = &mut self.cores[to.0 as usize];
                let queue = self
                    .spans
                    .within("runtime.handle_frame", Some(step), wf, || {
                        core.handle_frame(from, &bytes, now)
                    });
                if self.corpus.len() < CORPUS_FRAMES {
                    self.corpus.push(bytes);
                }
                self.apply(to, queue, step, wf);
            }
            Ev::Timer { host, token, .. } => {
                self.stats.timers_fired += 1;
                let now = self.now;
                let core = &mut self.cores[host.0 as usize];
                let queue = self
                    .spans
                    .within("runtime.handle_timer", Some(step), wf, || {
                        core.handle_timer(token, now)
                    });
                self.apply(host, queue, step, wf);
            }
        }
        self.spans.close(step);
        true
    }
}
