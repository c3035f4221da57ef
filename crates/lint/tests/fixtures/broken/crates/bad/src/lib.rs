//! A deliberately non-compliant fixture crate: every rule of the audit
//! must fire at least once on this file. Never compiled — scanned only.

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Bad {
    retries: AtomicU64,
    hits: AtomicU64,
    misses: Counter,
}

impl Bad {
    // Rule 1: an unsafe block with no SAFETY comment at all.
    pub fn undocumented_unsafe(ptr: *const u64) -> u64 {
        unsafe { *ptr }
    }

    // Rule 2: a non-Relaxed ordering with no ORDERING comment.
    pub fn undocumented_acquire(&self) -> u64 {
        self.retries.load(Ordering::Acquire)
    }

    // Rule 2 (SeqCst flavour): an ORDERING comment alone is not enough —
    // SeqCst additionally needs an explicit waiver.
    pub fn seqcst_without_waiver(&self) -> u64 {
        // ORDERING: claims a total order but carries no waiver.
        self.retries.load(Ordering::SeqCst)
    }

    // Rule 3: a denied API with neither allow-within-line nor waiver.
    pub fn blocks(&self) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Decoys: the literal and the comment below must NOT satisfy or
    // trigger any rule — the lexer strips strings and comments first.
    pub fn decoys(&self) -> &'static str {
        /* unsafe { Ordering::SeqCst } thread::sleep */
        r#"unsafe { louder } and Ordering::Acquire and thread::sleep"#
    }
}

// Rule 4: `dead_metric` is reported but nothing in this crate ever
// bumps `hits` — dead telemetry. `dead_cell` is the same defect on a
// `wft-obs` cell: it is read, never `.inc()`ed.
impl MetricsSource for Bad {
    fn collect_metrics(&self, out: &mut MetricsSnapshot) {
        out.push_counter("dead_metric", self.hits.load(Ordering::Relaxed));
        out.push_counter("dead_cell", self.misses.value());
    }
}
