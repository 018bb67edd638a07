//! Tests of the replay execution model: one new operation per step,
//! register rollback, deferred user-state writes, determinism checking,
//! work accounting, and abort handling.

use std::collections::HashMap;
use std::sync::Arc;

use commtm_mem::Addr;
use commtm_tx::{BlockFn, BlockRunner, Env, MemPort, OpResult, StepOutcome, TxOp};

/// A mock memory: flat word map, fixed 3-cycle latency, scriptable aborts.
#[derive(Default)]
struct MockPort {
    mem: HashMap<u64, u64>,
    ops: Vec<TxOp>,
    abort_on_op: Option<usize>,
    rng_next: u64,
}

impl MemPort for MockPort {
    fn op(&mut self, op: TxOp) -> OpResult {
        let n = self.ops.len();
        self.ops.push(op);
        if self.abort_on_op == Some(n) {
            return OpResult {
                value: 0,
                latency: 3,
                aborted: true,
            };
        }
        let value = match op {
            TxOp::Load(a) | TxOp::LoadL(_, a) | TxOp::Gather(_, a) => {
                *self.mem.get(&a.raw()).unwrap_or(&0)
            }
            TxOp::Store(a, v) | TxOp::StoreL(_, a, v) => {
                self.mem.insert(a.raw(), v);
                v
            }
        };
        OpResult {
            value,
            latency: 3,
            aborted: false,
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng_next += 1;
        self.rng_next
    }
}

fn body(f: impl Fn(&mut commtm_tx::TxCtx<'_, '_>) + Send + Sync + 'static) -> BlockFn {
    Arc::new(f)
}

const A: Addr = Addr::new(0x100);
const B: Addr = Addr::new(0x200);

#[test]
fn one_new_op_per_step() {
    let mut port = MockPort::default();
    port.mem.insert(A.raw(), 7);
    let mut env = Env::new(4, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let v = t.load(A);
        t.store(B, v + 1);
        t.store(A, v + 2);
    });
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    // Third pass performs the last op and completes.
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    // Exactly three real operations hit the port, in program order.
    assert_eq!(
        port.ops,
        vec![TxOp::Load(A), TxOp::Store(B, 8), TxOp::Store(A, 9)]
    );
    assert_eq!(port.mem[&B.raw()], 8);
}

#[test]
fn loads_replay_logged_values_not_memory() {
    let mut port = MockPort::default();
    port.mem.insert(A.raw(), 7);
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let v = t.load(A);
        t.store(B, v);
    });
    runner.step(&blk, &mut env, &mut port);
    // Memory changes under us; the logged read must stay 7 (the HTM layer
    // guarantees this is only possible for values conflict detection
    // protects).
    port.mem.insert(A.raw(), 99);
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    assert_eq!(port.mem[&B.raw()], 7);
}

#[test]
fn registers_roll_back_on_incomplete_pass_and_commit_on_done() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let r = t.reg(0);
        t.set_reg(0, r + 1);
        t.load(A);
        t.load(B);
    });
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    assert_eq!(
        env.regs[0], 0,
        "register effects of incomplete passes are discarded"
    );
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    assert_eq!(
        env.regs[0], 1,
        "completed block commits register effects exactly once"
    );
}

#[test]
fn deferred_user_writes_apply_exactly_once() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, 0u64);
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        t.load(A);
        t.load(B);
        t.defer(|count: &mut u64| *count += 1);
    });
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    assert_eq!(*env.user::<u64>(), 1);
}

#[test]
fn abort_discards_pass_and_resets_cleanly() {
    let mut port = MockPort {
        abort_on_op: Some(1), // the second real op aborts
        ..MockPort::default()
    };
    let mut env = Env::new(1, 0u64);
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        t.set_reg(0, 42);
        t.load(A);
        t.store(B, 1);
        t.defer(|c: &mut u64| *c += 1);
    });
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Yield { .. }
    ));
    let out = runner.step(&blk, &mut env, &mut port);
    assert!(matches!(out, StepOutcome::Abort { .. }));
    assert_eq!(
        env.regs[0], 0,
        "aborted attempt must not leak register writes"
    );
    assert_eq!(*env.user::<u64>(), 0, "aborted attempt must not run defers");
    // Restart: the runner re-executes from scratch.
    runner.reset();
    port.abort_on_op = None;
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    assert_eq!(env.regs[0], 42);
    assert_eq!(*env.user::<u64>(), 1);
}

#[test]
fn rand_is_memoized_within_an_attempt() {
    let mut port = MockPort::default();
    let mut env = Env::new(2, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let r1 = t.rand();
        t.store(A, r1);
        let r2 = t.rand();
        t.store(B, r2);
        t.set_reg(0, r1);
        t.set_reg(1, r2);
    });
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    // r1 drawn once (=1), r2 once (=2), despite multiple replays.
    assert_eq!(env.regs[0], 1);
    assert_eq!(env.regs[1], 2);
    assert_eq!(port.mem[&A.raw()], 1);
    assert_eq!(port.mem[&B.raw()], 2);
}

#[test]
fn work_cycles_charged_exactly_once() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        t.work(10);
        t.load(A);
        t.work(5);
        t.load(B);
    });
    let mut total = 0;
    loop {
        let out = runner.step(&blk, &mut env, &mut port);
        total += out.cycles();
        if matches!(out, StepOutcome::Done { .. }) {
            break;
        }
    }
    // Two passes: pass 1 performs load A (charging work 10+5 seen up to
    // the blocking point), pass 2 performs load B and completes. Work is
    // charged exactly once (15), ops once each (2 x 3), issue once per
    // pass (2 x 1).
    let issue_and_latency = 2 + 2 * 3;
    assert_eq!(total, issue_and_latency + 15);
}

#[test]
fn pointer_chase_terminates_under_zero_reads() {
    // A loop that follows a pointer chain; in satiated mode reads return 0,
    // which must end the loop (rule 2 of the replay model).
    let mut port = MockPort::default();
    port.mem.insert(0x100, 0x200);
    port.mem.insert(0x200, 0x300);
    port.mem.insert(0x300, 0);
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|t| {
        let mut p = 0x100u64;
        let mut hops = 0u64;
        while p != 0 {
            p = t.load(Addr::new(p));
            hops += 1;
        }
        t.set_reg(0, hops);
    });
    let mut steps = 0;
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {
        steps += 1;
        assert!(steps < 100, "replay must converge");
    }
    assert_eq!(env.regs[0], 3);
}

#[test]
#[should_panic(expected = "nondeterministic block")]
fn divergent_replay_panics() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, std::cell::Cell::new(0u64));
    let mut runner = BlockRunner::new();
    // Illegal: op sequence depends on ambient state mutated across passes.
    let blk = body(|t| {
        let c = t.user::<std::cell::Cell<u64>>();
        c.set(c.get() + 1);
        if c.get() % 2 == 1 {
            t.load(A);
        } else {
            t.load(B);
        }
        t.load(Addr::new(0x900));
    });
    runner.step(&blk, &mut env, &mut port);
    runner.step(&blk, &mut env, &mut port);
}

#[test]
fn empty_block_completes_immediately() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let blk = body(|_| {});
    assert!(matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ));
    assert!(port.ops.is_empty());
}

#[test]
fn labeled_ops_flow_through_port() {
    let mut port = MockPort::default();
    let mut env = Env::new(1, ());
    let mut runner = BlockRunner::new();
    let l = commtm_mem::LabelId::new(2);
    let blk = body(move |t| {
        let v = t.load_l(l, A);
        t.store_l(l, A, v + 1);
        t.load_gather(l, A);
    });
    while !matches!(
        runner.step(&blk, &mut env, &mut port),
        StepOutcome::Done { .. }
    ) {}
    assert_eq!(
        port.ops,
        vec![TxOp::LoadL(l, A), TxOp::StoreL(l, A, 1), TxOp::Gather(l, A)]
    );
}

/// A block of `n` dependent load/store pairs with interleaved work and
/// randomness: `2n` memory operations, long enough that replay re-runs
/// a large logged prefix on every pass.
fn chain_block(n: u64) -> BlockFn {
    body(move |t| {
        let mut acc = 0u64;
        for i in 0..n {
            t.work(2);
            let v = t.load(Addr::new(0x1000 + 8 * i));
            acc = acc.wrapping_add(v ^ t.rand());
            t.store(Addr::new(0x8000 + 8 * i), acc);
        }
        t.work(7);
        t.set_reg(0, acc);
        t.defer(move |done: &mut u64| *done += 1);
    })
}

/// Steps a fresh runner over `blk` to its first terminal outcome,
/// recording every step's outcome and the port's op count after it.
fn run_chain(blk: &BlockFn, port: &mut MockPort) -> (Vec<StepOutcome>, Vec<usize>, Env) {
    let mut env = Env::new(1, 0u64);
    let mut runner = BlockRunner::new();
    let (mut outs, mut ops_after) = (Vec::new(), Vec::new());
    loop {
        let out = runner.step(blk, &mut env, port);
        outs.push(out);
        ops_after.push(port.ops.len());
        if !matches!(out, StepOutcome::Yield { .. }) {
            return (outs, ops_after, env);
        }
    }
}

fn chain_port(n: u64) -> MockPort {
    let mut port = MockPort::default();
    for i in 0..n {
        port.mem.insert(0x1000 + 8 * i, 0xAB00 + i);
    }
    port
}

#[test]
fn long_block_replays_one_op_per_step() {
    const N: u64 = 150; // 300 memory operations
    let blk = chain_block(N);
    let mut port = chain_port(N);
    let (outs, ops_after, env) = run_chain(&blk, &mut port);

    // One new operation per step, in program order, never re-issued.
    assert_eq!(outs.len(), 2 * N as usize);
    assert_eq!(ops_after, (1..=2 * N as usize).collect::<Vec<_>>());
    assert!(matches!(outs.last(), Some(StepOutcome::Done { .. })));
    for (i, op) in port.ops.iter().enumerate() {
        let k = (i / 2) as u64;
        match (i % 2, op) {
            (0, TxOp::Load(a)) => assert_eq!(a.raw(), 0x1000 + 8 * k),
            (1, TxOp::Store(a, _)) => assert_eq!(a.raw(), 0x8000 + 8 * k),
            other => panic!("op {i} out of program order: {other:?}"),
        }
    }
    // One memoized draw per iteration, however often the pass replays.
    assert_eq!(port.rng_next, N);

    // Work is charged exactly once: every step costs 1 issue cycle plus
    // the 3-cycle latency, and the work total (2 per iteration plus the
    // 7-cycle tail) appears once across all steps.
    let total: u64 = outs.iter().map(|o| o.cycles()).sum();
    assert_eq!(total, 2 * N * (1 + 3) + 2 * N + 7);
    // ...and at the step that first reaches it: the pass performing load
    // `i` sees iteration i's work, the pass performing store `i` sees
    // iteration i+1's (or the tail's, on the last store).
    assert_eq!(outs[0].cycles(), 1 + 3 + 2);
    assert_eq!(outs[1].cycles(), 1 + 3 + 2);
    assert_eq!(outs[2].cycles(), 1 + 3);
    assert_eq!(outs.last().unwrap().cycles(), 1 + 3 + 7);

    // Registers and deferred user state commit exactly once.
    let expect = (0..N).fold(0u64, |acc, i| acc.wrapping_add((0xAB00 + i) ^ (i + 1)));
    assert_eq!(env.regs[0], expect);
    assert_eq!(*env.user::<u64>(), 1);

    // The same block on the same memory replays to the same outcome,
    // step by step and cycle for cycle.
    let mut again = chain_port(N);
    let (outs2, _, env2) = run_chain(&blk, &mut again);
    assert_eq!(outs2, outs);
    assert_eq!(env2.regs, env.regs);
    assert_eq!(again.ops, port.ops);
    assert_eq!(again.mem, port.mem);
}

#[test]
fn long_block_abort_discards_the_attempt() {
    const N: u64 = 150;
    let blk = chain_block(N);
    let mut port = MockPort {
        abort_on_op: Some(217),
        ..chain_port(N)
    };
    let (outs, ops_after, env) = run_chain(&blk, &mut port);
    assert_eq!(outs.len(), 218, "the aborting op ends the attempt");
    assert_eq!(*ops_after.last().unwrap(), 218);
    assert!(matches!(outs.last(), Some(StepOutcome::Abort { .. })));
    // Op 217 is store 108: its step charges issue + latency and no work
    // (store `i`'s trailing work is only seen if the store succeeds).
    assert_eq!(outs.last().unwrap().cycles(), 1 + 3);
    assert_eq!(env.regs[0], 0, "abort must not leak registers");
    assert_eq!(*env.user::<u64>(), 0, "abort must not run defers");
}
