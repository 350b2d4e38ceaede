//! The heap counter of `src/heap.rs`. It counts the whole process, so
//! this test sits in a test binary of its own: bytes another test freed
//! while it ran would break its bounds.

use perfbench::heap;

#[test]
fn heap_counter_tracks_live_bytes_and_their_peak() {
    const MB: usize = 1 << 20;
    let before = heap::live_bytes();
    heap::reset_peak();
    let block = vec![1u8; 8 * MB];
    assert!(heap::live_bytes() >= before + 8 * MB);
    drop(std::hint::black_box(block));
    // The test harness may allocate on other threads meanwhile, so the
    // bounds are loose; the 8 MB block must show in the peak after it is freed.
    assert!(heap::peak_mb() >= 8.0);
    heap::reset_peak();
    assert!(heap::peak_mb() < heap::live_bytes() as f64 / MB as f64 + 8.0);
}
