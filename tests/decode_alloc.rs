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

use netsim::archive::{apply_registry_delta, ByteWriter};
use netsim::IdentifyRegistry;
use p2pmodel::Multiaddr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
