//! Checkpoint / restore: stop and resume, and a two-pass restart.
//!
//! A linear sketch's whole state is seeds + counters + phase, so it
//! serializes to a compact byte string and rehydrates bit-for-bit.  This
//! example demonstrates the two workflows that buys:
//!
//! 1. **Stop/resume**: a long ingestion is interrupted after a bounded
//!    number of updates, its state parked on disk, and later continued from
//!    the bytes — landing in exactly the state an uninterrupted run reaches.
//! 2. **A two-pass restart**: pass 1, one `begin_second_pass()` transition,
//!    and the frozen between-pass state saved as checkpoint bytes; a second
//!    pass restarted from those bytes (after a crash, or on another machine)
//!    lands on the same bits as the uninterrupted run.
//!
//! Run with `cargo run --example checkpoint_restore`.

use zerolaw::prelude::*;

fn main() {
    let domain = 1u64 << 10;
    let config = GSumConfig::with_space_budget(domain, 0.2, 256, 42);
    let g = PowerFunction::new(2.0);
    let batch = 1024;

    // ------------------------------------------------------------------
    // 1. Stop, checkpoint to disk, resume.
    // ------------------------------------------------------------------
    let prototype = OnePassGSumSketch::new(g, &config);

    // Reference: the uninterrupted run.
    let mut source = ZipfStreamGenerator::new(StreamConfig::new(domain, 100_000), 1.2, 7);
    let mut uninterrupted = prototype.clone();
    source.feed_batched(&mut uninterrupted, batch);

    // Interrupted run: absorb the first 40k updates, then stop.
    source.reset();
    let mut partial = prototype.clone();
    let head: Vec<Update> = source.updates().take(40_000).collect();
    partial.update_batch(&head);
    let path = std::env::temp_dir().join("zerolaw_checkpoint_demo.bin");
    let bytes = partial.to_checkpoint_bytes().expect("serialize");
    std::fs::write(&path, &bytes).expect("write checkpoint");
    println!(
        "checkpointed after {} updates: {} bytes at {}",
        head.len(),
        bytes.len(),
        path.display()
    );

    // ...possibly much later, on a different machine: restore and continue
    // with the rest of the stream (the source is already positioned there).
    let saved = std::fs::read(&path).expect("read checkpoint");
    let mut resumed =
        OnePassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&saved).expect("restore");
    source.feed_batched(&mut resumed, batch);
    assert_eq!(
        resumed.estimate().to_bits(),
        uninterrupted.estimate().to_bits(),
        "resumed run must match the uninterrupted run bit for bit"
    );
    println!(
        "resumed estimate {:.4e} == uninterrupted estimate (bit-exact)",
        resumed.estimate()
    );
    let _ = std::fs::remove_file(&path);

    // ------------------------------------------------------------------
    // 2. A two-pass run restarted from the frozen between-pass bytes.
    // ------------------------------------------------------------------
    let stream = ZipfStreamGenerator::new(StreamConfig::new(domain, 60_000), 1.2, 9).generate();

    // Pass 1, the transition, then save the frozen state before pass 2.
    let mut reference = TwoPassGSumSketch::new(g, &config);
    stream.source().feed_batched(&mut reference, batch);
    reference.begin_second_pass();
    let frozen = reference
        .to_checkpoint_bytes()
        .expect("serialize frozen state");
    stream.source().feed_batched(&mut reference, batch);

    // Restart pass 2 from the frozen bytes: the replay lands on the same bits.
    let mut restarted =
        TwoPassGSumSketch::<PowerFunction>::from_checkpoint_bytes(&frozen).expect("restore");
    assert!(restarted.in_second_pass());
    stream.source().feed_batched(&mut restarted, batch);
    assert_eq!(
        restarted.estimate().to_bits(),
        reference.estimate().to_bits(),
        "restarted second pass must match the uninterrupted run bit for bit"
    );
    println!(
        "two-pass estimate {:.4e} == restarted from {} frozen bytes (bit-exact)",
        restarted.estimate(),
        frozen.len()
    );

    // Ground truth for context.
    let exact = exact_gsum(&g, &stream.frequency_vector());
    println!("exact g-SUM: {exact:.4e}");
}
