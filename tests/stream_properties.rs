//! Seeded property fuzz for the streaming window algebra.
//!
//! The streaming engine's correctness rests on `WindowState` being a
//! commutative monoid under `merge`:
//!
//! * **merge is associative and commutative** with `WindowState::new()` as
//!   identity — panes computed anywhere (threads, shards, vantages) combine
//!   into the same state, and sliding windows are merges of tumbling panes;
//! * **apply is order-insensitive in aggregate** — folding a shuffled event
//!   sequence yields the same state;
//! * **counts are monotone within a window** while events are only applied.
//!
//! All laws are fuzzed over seeded random event streams (no proptest in the
//! build environment; `SimRng` drives the generation, so failures reproduce
//! from the printed round).

use ipfs_passive_measurement::prelude::*;
use measurement::stream::sliding_windows;
use measurement::WindowEvent;

mod common;

fn random_event(rng: &mut SimRng) -> WindowEvent {
    let slot = rng.uniform_u64(0, 12) as u32;
    match rng.index(4) {
        0 => WindowEvent::Opened { slot },
        1 => WindowEvent::Closed {
            slot,
            dur_ms: rng.uniform_u64(0, 5_000_000),
        },
        2 => WindowEvent::Identify { slot },
        _ => WindowEvent::Discovered { slot },
    }
}

fn random_events(rng: &mut SimRng, max: usize) -> Vec<WindowEvent> {
    (0..rng.index(max + 1)).map(|_| random_event(rng)).collect()
}

fn state_of(events: &[WindowEvent]) -> WindowState {
    let mut state = WindowState::new();
    for &event in events {
        state.apply(event);
    }
    state
}

#[test]
fn merge_is_associative_commutative_and_has_an_identity() {
    let mut rng = SimRng::seed_from(0x5712_0001);
    for round in 0..300 {
        let a = state_of(&random_events(&mut rng, 30));
        let b = state_of(&random_events(&mut rng, 30));
        let c = state_of(&random_events(&mut rng, 30));

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "round {round}: merge must be commutative");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "round {round}: merge must be associative");

        // Identity: a ⊕ ∅ == a == ∅ ⊕ a.
        let mut a_id = a.clone();
        a_id.merge(&WindowState::new());
        assert_eq!(a_id, a, "round {round}: empty is a right identity");
        let mut id_a = WindowState::new();
        id_a.merge(&a);
        assert_eq!(id_a, a, "round {round}: empty is a left identity");
    }
}

#[test]
fn state_of_a_split_stream_is_the_merge_of_its_parts() {
    // The law that makes panes sufficient statistics: folding the whole
    // stream equals folding the parts and merging — wherever the split is.
    let mut rng = SimRng::seed_from(0x5712_0002);
    for round in 0..200 {
        let events = random_events(&mut rng, 60);
        let whole = state_of(&events);
        let split = if events.is_empty() { 0 } else { rng.index(events.len() + 1) };
        let mut merged = state_of(&events[..split]);
        merged.merge(&state_of(&events[split..]));
        assert_eq!(merged, whole, "round {round}: split at {split} must not matter");
    }
}

#[test]
fn applying_a_shuffled_stream_yields_the_same_state() {
    let mut rng = SimRng::seed_from(0x5712_0003);
    for round in 0..200 {
        let events = random_events(&mut rng, 60);
        let mut shuffled = events.clone();
        rng.shuffle(&mut shuffled);
        assert_eq!(
            state_of(&events),
            state_of(&shuffled),
            "round {round}: aggregate state must be order-insensitive"
        );
    }
}

#[test]
fn counts_are_monotone_while_events_are_applied() {
    let mut rng = SimRng::seed_from(0x5712_0004);
    for round in 0..100 {
        let events = random_events(&mut rng, 80);
        let mut state = WindowState::new();
        let mut prev = (0u64, 0usize, 0u128);
        for (i, &event) in events.iter().enumerate() {
            state.apply(event);
            let now = (state.event_count(), state.active_peers(), state.dur_ms_sum);
            assert!(
                now.0 > prev.0 && now.1 >= prev.1 && now.2 >= prev.2,
                "round {round}, event {i}: counts must be monotone within a window"
            );
            assert_eq!(now.0, i as u64 + 1);
            prev = now;
        }
        assert_eq!(
            state.opened + state.closed + state.identifies + state.discoveries,
            events.len() as u64
        );
    }
}

#[test]
fn sliding_windows_are_prefix_merges_of_panes() {
    // End-to-end over a real campaign: the k-pane sliding series produced by
    // merge must equal re-merging panes by hand, and the full-width slide
    // must equal the merge of everything.
    let campaign = run_streaming_campaign(
        Scenario::new(MeasurementPeriod::P1)
            .with_scale(common::SCALE)
            .with_seed(common::SEED),
        SimDuration::from_hours(3),
    );
    let stream = campaign.primary_stream();
    assert!(stream.recent_windows.len() >= 8, "a day at 3 h panes");
    assert_eq!(stream.recent_windows.len(), stream.panes.len(), "default retention keeps all");
    for k in [1, 2, 4] {
        let slides = sliding_windows(&stream.recent_windows, k);
        assert_eq!(slides.len(), stream.recent_windows.len());
        for (i, slide) in slides.iter().enumerate() {
            let lo = (i + 1).saturating_sub(k);
            let mut expected = WindowState::new();
            for pane in &stream.recent_windows[lo..=i] {
                expected.merge(&pane.state);
            }
            assert_eq!(*slide, expected, "k={k}, i={i}");
        }
    }
    let total = sliding_windows(&stream.recent_windows, stream.recent_windows.len())
        .last()
        .cloned()
        .expect("non-empty");
    assert_eq!(total.closed, stream.connections);
    // The compact pane series mirrors the full states exactly.
    for (pane, snapshot) in stream.panes.iter().zip(&stream.recent_windows) {
        assert_eq!(*pane, snapshot.summary());
    }
}
