//! A deterministic allocation budget for the miss path, in place of a
//! timing assertion: one `Pdp::decide` over the repo benchmark's
//! domain shape costs a small fixed number of heap allocations, none
//! of them per policy walked, and routing a request costs its key and
//! nothing else. Passes or fails on logic — the count is the same on
//! every host — and is the guard that keeps a `Vec<char>` per target
//! match, or a store lookup per policy, from growing back.

use dacs::cluster::ShardRouter;
use dacs::core::scenario::alternating_lockdown_gate;
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::Domain;
use dacs::policy::policy::Decision;
use dacs::policy::request::RequestContext;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness runs tests on
    /// parallel threads; each counts only its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: a thread may still allocate while its locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and regrowths) this thread makes inside `work`.
fn allocations_in<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// The benchmark's domain: the lockdown gate (doctors may touch
/// `records/*`, role from the PIP) and `aux` quarantine policies whose
/// glob targets match no `records/*` request.
fn domain_with_aux_policies(aux: usize) -> Domain {
    let mut builder = Domain::builder("q").policy(alternating_lockdown_gate("q", 0));
    for k in 0..aux {
        builder = builder.policy_dsl(&format!(
            r#"policy "aux-{k}" deny-overrides {{
                 rule "quarantine" deny {{ target {{ resource "id" ~= "aux-{k}/*"; }} }}
               }}"#
        ));
    }
    builder
        .subject_attr("user-1@q", "role", "doctor")
        .build(&CryptoCtx::new())
}

/// Allocations of one steady-state `decide` (the snapshot is built by
/// an earlier call), with the verdict checked.
fn decide_allocations(domain: &Domain, request: &RequestContext, expected: Decision) -> u64 {
    assert_eq!(domain.pdp.decide(request, 0).decision, expected);
    let (count, response) = allocations_in(|| domain.pdp.decide(request, 1));
    assert_eq!(response.decision, expected);
    count
}

/// What one decide may allocate: the gate's condition (a literal, the
/// PIP's bag, its memo entry and the copy handed to `is-in`) — nothing
/// that scales with the policies walked. Today a permit makes 7.
const DECIDE_BUDGET: u64 = 8;

#[test]
fn decide_allocates_a_small_fixed_number_whatever_the_policy_count() {
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let stranger = RequestContext::basic("user-2@q", "records/7", "read");

    let seventeen = domain_with_aux_policies(16);
    let thirty_three = domain_with_aux_policies(32);

    let permit = decide_allocations(&seventeen, &doctor, Decision::Permit);
    assert!(
        permit <= DECIDE_BUDGET,
        "one decide over 17 policies made {permit} allocations (budget {DECIDE_BUDGET})"
    );
    let deny = decide_allocations(&seventeen, &stranger, Decision::Deny);
    assert!(
        deny <= DECIDE_BUDGET,
        "a denying decide over 17 policies made {deny} allocations (budget {DECIDE_BUDGET})"
    );

    // Sixteen more policies whose targets do not match add nothing.
    assert_eq!(
        decide_allocations(&thirty_three, &doctor, Decision::Permit),
        permit,
        "allocations grew with the number of non-matching policies"
    );
    assert_eq!(
        decide_allocations(&thirty_three, &stranger, Decision::Deny),
        deny,
        "allocations grew with the number of non-matching policies"
    );
}

#[test]
fn routing_allocates_only_the_routing_key() {
    let router = ShardRouter::new(2);
    let request = RequestContext::basic("user-1@q", "records/7", "read");
    let (count, shard) = allocations_in(|| router.shard_for(&request));
    assert!(shard < 2);
    assert_eq!(
        count, 1,
        "shard_for allocates its routing-key String and nothing else"
    );
}

#[test]
fn request_id_accessors_do_not_allocate() {
    let request = RequestContext::basic("user-1@q", "records/7", "read");
    let (count, ids) = allocations_in(|| {
        (
            request.subject_id(),
            request.resource_id(),
            request.action_id(),
        )
    });
    assert_eq!(ids, (Some("user-1@q"), Some("records/7"), Some("read")));
    assert_eq!(count, 0);
}
