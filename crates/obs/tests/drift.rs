//! The drift watchdog fits exactly what `calibrate_trace` fits: over
//! generated streams of `call`, `rebate` and `backoff` events, every
//! `DriftAlert`'s fitted constant has the bits of `calibrate_trace` over
//! the events of the trailing windows it was fitted on. Arming the
//! watchdog changes no closed window.

use proptest::prelude::*;

use textjoin_obs::{calibrate_trace, ns, Charge, Event, EventKind, Monitor, MonitorConfig};

const WINDOW_SECS: f64 = 10.0;

/// What drives one event: kind (0 call, 1 rebate, 2 backoff), clock step
/// in tenths of a second, four work counts, the price multiplier in
/// percent, and a noise term in thousandths of a second.
type Seed = ((u8, u32), (i64, i64, i64, i64), (u32, i32));

fn seed() -> impl Strategy<Value = Seed> {
    (
        (0u8..3, 0u32..160),
        (0i64..3, 0i64..400, 0i64..6, 0i64..3),
        (50u32..200, -40i32..40),
    )
}

/// The stream of `seeds`: clocks never decrease, and each event's seconds
/// are its work at a drifting price plus noise, so no fit is exact and a
/// dropped row moves the fitted bits.
fn stream(seeds: &[Seed]) -> Vec<Event> {
    let mut clock = 0.0;
    let mut events = Vec::new();
    for (seq, seed) in seeds.iter().enumerate() {
        let &((kind, step), (inv, post, short, long), (pct, noise)) = seed;
        clock += step as f64 / 10.0;
        let price = pct as f64 / 100.0;
        let noise = noise as f64 / 1000.0;
        let charge = Charge {
            invocations: inv,
            postings: post,
            docs_short: short,
            docs_long: long,
            ns_invocation: ns(price * inv as f64 + noise),
            ns_processing: ns(price * 1e-3 * post as f64),
            ns_transmission: ns(price * (0.01 * short as f64 + long as f64) - noise),
            ..Charge::default()
        };
        let kind = match kind {
            0 => EventKind::Call {
                op: "search",
                shard: Some(inv as usize),
                terms: 1,
                err: None,
                charge,
            },
            1 => EventKind::Rebate {
                shard: Some(long as usize),
                charge: Charge {
                    invocations: -inv,
                    postings: -post,
                    docs_short: -short,
                    docs_long: -long,
                    ns_invocation: -charge.ns_invocation,
                    ns_processing: -charge.ns_processing,
                    ns_transmission: -charge.ns_transmission,
                    ..Charge::default()
                },
            },
            _ => EventKind::Backoff {
                shard: None,
                charge: Charge {
                    retries: 1,
                    ns_backoff: ns(price),
                    ..Charge::default()
                },
            },
        };
        events.push(Event {
            seq: seq as u64,
            clock,
            kind,
        });
    }
    events
}

fn window_of(ev: &Event) -> u64 {
    (ev.clock / WINDOW_SECS).floor() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn each_drift_alert_is_calibrate_trace_over_its_trailing_windows(
        seeds in prop::collection::vec(seed(), 1..120),
        every in 1u64..4,
        trailing in 1usize..6,
    ) {
        let events = stream(&seeds);
        let bare = MonitorConfig::new(WINDOW_SECS).with_drift(every, trailing);
        let armed = bare.clone().with_baseline(1.0, 1e-3, 0.01, 1.0);
        let watched = Monitor::replay(armed, &events);
        prop_assert_eq!(watched.windows(), Monitor::replay(bare, &events).windows());
        for alert in watched.alerts() {
            let EventKind::DriftAlert { window, component, fitted, .. } = alert.kind else {
                continue;
            };
            let first = (window + 1).saturating_sub(trailing as u64);
            let trail: Vec<Event> = events
                .iter()
                .filter(|e| (first..=window).contains(&window_of(e)))
                .cloned()
                .collect();
            let cal = calibrate_trace(&trail);
            let fit = [&cal.c_i, &cal.c_p, &cal.c_s, &cal.c_l]
                .into_iter()
                .find(|f| f.name == component)
                .expect("a drift alert names one of the four constants");
            prop_assert!(fit.determined, "window {window}: {component} undetermined");
            prop_assert_eq!(
                fitted.to_bits(),
                fit.fitted.to_bits(),
                "window {}: {} fitted {} over the trail, {} by the watchdog",
                window,
                component,
                fit.fitted,
                fitted
            );
        }
    }
}
