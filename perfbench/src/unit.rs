//! Per-operation unit costs of two layers, measured on the workload's own
//! inputs: the DNS codec over the sweep's response payloads, and route
//! resolution over the sweep's scanner→target pairs.

use crate::stats::{median, Clock};
use dnswire::Message;
use inetgen::Internet;
use netsim::{Payload, RouteResolver};
use std::hint::black_box;

/// Timed repetitions per unit cost; the median is reported.
const REPS: usize = 7;
/// Shortest timed repetition; short passes are repeated to reach it.
const MIN_REP_S: f64 = 0.02;
/// Destinations sampled for the route-resolution costs.
const ROUTE_SAMPLE: usize = 4_096;

/// Median nanoseconds per operation of `pass`, which performs `ops`
/// operations, after one untimed warm-up pass.
fn per_op_ns(ops: usize, mut pass: impl FnMut()) -> f64 {
    let clock = Clock::start();
    pass();
    let warm_s = clock.secs();
    let inner = ((MIN_REP_S / warm_s.max(1e-9)).ceil() as usize).max(1);
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let clock = Clock::start();
            for _ in 0..inner {
                pass();
            }
            clock.secs() * 1e9 / (inner * ops.max(1)) as f64
        })
        .collect();
    median(&samples)
}

/// `(decode_ns, encode_ns)` per message over `payloads`.
pub fn codec(payloads: &[Payload]) -> (f64, f64) {
    let messages: Vec<Message> = payloads
        .iter()
        .filter_map(|p| Message::decode(p).ok())
        .collect();
    let decode = per_op_ns(payloads.len(), || {
        for p in payloads {
            let _ = black_box(Message::decode(black_box(p)));
        }
    });
    let encode = per_op_ns(messages.len(), || {
        for m in &messages {
            black_box(black_box(m).encode());
        }
    });
    (decode, encode)
}

/// `(cold_ns, warm_ns)` per `RouteResolver::resolve` from the scanner to
/// the world's planted hosts, in probe order: cold on a fresh resolver,
/// warm on one that has resolved every pair before.
pub fn routes(world: &Internet) -> (f64, f64) {
    let topo = world.sim.topology();
    let src = world.fixtures.scanner;
    let planted: std::collections::HashSet<_> = world.truth.hosts.iter().map(|h| h.ip).collect();
    let dsts: Vec<_> = world
        .targets
        .iter()
        .filter(|ip| planted.contains(ip))
        .take(ROUTE_SAMPLE)
        .copied()
        .collect();
    let resolve_all = |resolver: &mut RouteResolver| {
        for &dst in &dsts {
            let _ = black_box(resolver.resolve(topo, src, black_box(dst)));
        }
    };
    let cold = per_op_ns(dsts.len(), || resolve_all(&mut RouteResolver::new()));
    let mut warm_resolver = RouteResolver::new();
    resolve_all(&mut warm_resolver);
    let warm = per_op_ns(dsts.len(), || resolve_all(&mut warm_resolver));
    (cold, warm)
}
