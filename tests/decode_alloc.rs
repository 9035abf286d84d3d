//! Allocation budget of the decoders of untrusted bytes.
//!
//! A decoder reads an element count before the elements. `ByteReader::len`
//! rejects a count larger than the bytes that remain, which bounds it at
//! one byte per element, but most elements are far wider in memory than
//! one byte. A decoder that reserved room for `count` elements up front
//! could therefore be made to reserve many times its input for elements
//! that do not exist. This file runs the decoder under a global allocator
//! that records the largest single allocation, and holds that to a budget
//! relative to the input.

use measurement::StreamingMonitor;
use netsim::archive::{
    apply_registry_delta, encode_registry_delta, ByteWriter, BK_DHT, BK_GROUND_TRUTH, BK_META,
    BK_OBSERVERS, BK_REGISTRY, GLOBAL_OWNER,
};
use netsim::{decode_output, ArchiveWriter, DhtConduct, DhtEvent, IdentifyRegistry};
use p2pmodel::Multiaddr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The system allocator, recording the largest single request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// atomic maximum, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by every test while it measures: the counter is process-wide, and
/// the harness runs tests on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// A registry delta holding one identify payload whose listen-address
/// count equals the `filler` zero bytes that follow it. Every 8 zero bytes
/// decode as one IPv4 address, so the decoder reads `filler / 8` addresses
/// and then runs out of input.
fn forged_delta(filler: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for count in [0, 0, 0, 0, 0, 1] {
        w.put_uvarint(count); // three base cursors, no peers, no addresses, one identify
    }
    w.put_u8(2); // a missing agent
    w.put_uvarint(0); // no protocols
    w.put_uvarint(filler as u64); // the forged listen-address count
    let mut bytes = w.into_bytes();
    bytes.resize(bytes.len() + filler, 0);
    bytes
}

#[test]
fn a_forged_address_count_reserves_at_most_six_times_the_input() {
    // An address is 8 bytes encoded and 48 in memory.
    let budget = 6;
    assert_eq!(std::mem::size_of::<Multiaddr>(), 8 * budget);
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for filler in [1 << 20, 1 << 22] {
        let delta = forged_delta(filler);
        let mut registry = IdentifyRegistry::new();
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = apply_registry_delta(&mut registry, &delta);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(outcome.is_err(), "a delta cut short must fail to decode");
        assert!(
            largest <= budget * delta.len(),
            "a {} B delta made a {largest} B allocation, more than {budget}x the input",
            delta.len()
        );
    }
}

/// An archive of an empty run whose DHT block is `dht`: an empty registry,
/// no observers and an empty ground truth, all of which decode.
fn archive_with_dht_block(dht: &[u8]) -> Vec<u8> {
    let zeros = |n: usize| {
        let mut w = ByteWriter::new();
        for _ in 0..n {
            w.put_uvarint(0);
        }
        w.into_bytes()
    };
    let mut writer = ArchiveWriter::new();
    writer.push_block(BK_META, GLOBAL_OWNER, &[]);
    let registry = encode_registry_delta(&IdentifyRegistry::new(), 0, 0, 0);
    writer.push_block(BK_REGISTRY, GLOBAL_OWNER, &registry);
    writer.push_block(BK_OBSERVERS, GLOBAL_OWNER, &zeros(1));
    // No dictionary entries, no peers, no events.
    writer.push_block(BK_GROUND_TRUTH, GLOBAL_OWNER, &zeros(3));
    writer.push_block(BK_DHT, GLOBAL_OWNER, dht);
    writer.finish()
}

#[test]
fn forged_dht_counts_reserve_at_most_twelve_times_the_block() {
    // An event is 24 bytes in memory and at least 3 encoded (a tag, a time
    // delta, a slot); a conduct entry is 24 bytes and at least 2 encoded
    // (a slot and a tag).
    let budget = 12;
    assert!(std::mem::size_of::<DhtEvent>() <= 24);
    assert!(std::mem::size_of::<(u32, DhtConduct)>() <= 24);
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let empty = [0u8; 5];
    assert!(
        decode_output(&archive_with_dht_block(&empty)).is_ok(),
        "an empty dictionary, k, bootstrap, conduct and event count decode"
    );
    let mut over = Vec::new();
    for filler in [1 << 20, 1 << 22] {
        // The dictionary, k and bootstrap counts are zero; then either the
        // conduct count or, after an empty conduct table, the event count
        // equals the zero filler that follows it. Every element refers to
        // slot 0 of an empty dictionary, so the first one fails.
        for (site, prefix) in [("conduct", 3), ("events", 4)] {
            let mut w = ByteWriter::new();
            for _ in 0..prefix {
                w.put_uvarint(0);
            }
            w.put_uvarint(filler as u64);
            let mut block = w.into_bytes();
            block.resize(block.len() + filler, 0);
            let archive = archive_with_dht_block(&block);
            LARGEST.store(0, Ordering::Relaxed);
            let outcome = decode_output(&archive);
            let largest = LARGEST.load(Ordering::Relaxed);
            assert!(
                outcome.is_err(),
                "a forged {site} count must fail to decode"
            );
            if largest > budget * block.len() {
                over.push(format!(
                    "{site}: {largest} B from a {} B block",
                    block.len()
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "allocations over {budget}x the block: {over:#?}"
    );
}

/// The monitor state snapshot layout version the offsets below describe.
const SNAPSHOT_VERSION: u8 = 1;

/// The bytes between the version byte and each count that
/// `StreamingMonitor::restore` reserves by. A version byte followed by
/// zeros is an empty monitor: every config field, count and value reads as
/// zero. So the fields before a count are zero bytes: nine for the config,
/// then one per empty count or zero varint, eight per f64 and sixteen per
/// u128.
fn reserving_sites() -> Vec<(&'static str, Vec<u8>)> {
    let zeros = |n| vec![0u8; n];
    // One slot aggregate: slot, connections, f64 duration sum, max
    // duration and no first address, then its identify id count.
    let one_slot = [zeros(9), vec![1], zeros(12)].concat();
    vec![
        ("slot aggregates", zeros(9)),
        ("slot identify ids", one_slot),
        ("open connections", zeros(10)),
        ("connection addresses", zeros(11)),
        ("inbound durations", zeros(14)),
        ("connected refcounts", zeros(22)),
        ("pane summaries", zeros(48)),
        ("retained windows", zeros(49)),
    ]
}

#[test]
fn forged_snapshot_counts_reserve_at_most_sixteen_times_the_input() {
    let budget = 16;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let empty = [vec![SNAPSHOT_VERSION], vec![0; 51]].concat();
    let monitor =
        StreamingMonitor::restore(&empty).expect("a version byte and zeros is an empty monitor");
    assert_eq!(
        monitor.state_snapshot(),
        empty,
        "the snapshot layout the offsets describe changed"
    );

    let mut over = Vec::new();
    for filler in [1 << 20, 1 << 22] {
        for (site, prefix) in reserving_sites() {
            // The count equals the zero filler that follows it, so the
            // decoder runs out of input before it reads that many elements.
            let mut w = ByteWriter::new();
            w.put_u8(SNAPSHOT_VERSION);
            w.put_raw(&prefix);
            w.put_uvarint(filler as u64);
            let mut snapshot = w.into_bytes();
            snapshot.resize(snapshot.len() + filler, 0);
            LARGEST.store(0, Ordering::Relaxed);
            let outcome = StreamingMonitor::restore(&snapshot);
            let largest = LARGEST.load(Ordering::Relaxed);
            assert!(
                outcome.is_err(),
                "a snapshot cut short at the {site} must fail to restore"
            );
            if largest > budget * snapshot.len() {
                over.push(format!("{site}: {largest} B from {} B", snapshot.len()));
            }
        }
    }
    assert!(
        over.is_empty(),
        "allocations over {budget}x the input: {over:#?}"
    );
}
