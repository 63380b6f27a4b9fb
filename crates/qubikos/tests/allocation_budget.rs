//! Heap-allocation budget of the instance round trip's hot calls.
//!
//! Every stage of the suite store regenerates instances and emits their
//! QASM, so allocations per [`generate`] and per [`to_qasm`] call are a
//! deterministic work counter of the store lifecycle: the counts depend on
//! the code, not on the machine or its load. This file installs a counting
//! global allocator and holds a single test, so no other test allocates
//! while it counts.
//!
//! An allocation is any call that asks the allocator for memory: `alloc`,
//! `alloc_zeroed` or `realloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qubikos::{generate, GeneratorConfig, SuiteConfig};
use qubikos_arch::DeviceKind;
use qubikos_circuit::to_qasm;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call delegates to `System`; the counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Average allocations allowed per `generate` call on the configuration
/// below (a per-instance `Vec` per backbone section is the floor).
const GENERATE_BUDGET: u64 = 120;

/// Allocations allowed per `to_qasm` call: the output string, sized once.
const TO_QASM_BUDGET: u64 = 2;

/// The repository benchmark's store-lifecycle corpus: grid-3x3, designed
/// SWAPs 5/10/15/20, 30 two-qubit gates, base seed 2025 — 50 instances per
/// SWAP count here.
#[test]
fn generate_and_to_qasm_stay_within_their_allocation_budgets() {
    let arch = DeviceKind::Grid3x3.build();
    let suite = SuiteConfig {
        swap_counts: vec![5, 10, 15, 20],
        circuits_per_count: 50,
        two_qubit_gates: 30,
        base_seed: 2025,
    };
    let mut calls = 0;
    let mut generate_allocations = 0;
    for flat in 0..suite.total_circuits() {
        let (count_index, instance) = suite.instance_coordinates(flat);
        let config = GeneratorConfig::new(suite.swap_counts[count_index], suite.two_qubit_gates)
            .with_seed(suite.instance_seed(count_index, instance));
        let (bench, made) = allocations(|| generate(&arch, &config).expect("generates"));
        generate_allocations += made;
        calls += 1;

        for circuit in [bench.circuit(), bench.reference_solution()] {
            let (text, made) = allocations(|| to_qasm(circuit));
            assert!(
                made <= TO_QASM_BUDGET,
                "to_qasm made {made} allocations for {} gates ({} bytes), budget {TO_QASM_BUDGET}",
                circuit.gate_count(),
                text.len()
            );
        }
    }
    let average = generate_allocations as f64 / calls as f64;
    assert!(
        average <= GENERATE_BUDGET as f64,
        "generate made {average:.1} allocations per call on average, budget {GENERATE_BUDGET}"
    );
}
