//! Stackful fibers: the simulator's one audited `unsafe` file.
//!
//! Every simulated process of a run is a fiber on the run's one OS
//! thread (DESIGN.md §5k), kept in that thread's fiber table under the id
//! the scheduler gives it (its pid). A fiber owns a lazily mapped stack of
//! [`STACK_BYTES`] with a `PROT_NONE` guard page below it, so a process
//! that recurses too deep dies on the guard page (SIGSEGV) instead of
//! overwriting memory.
//!
//! A thread runs either its own stack (the resumer: the scheduler's run
//! loop) or one of its fibers. [`resume`] switches from the thread's stack
//! to a fiber. [`switch_to`] switches the running fiber straight to another
//! suspended one, which inherits the thread's stack as its resumer.
//! [`suspend`] switches the running fiber back to the thread's stack, and
//! a fiber whose body returns switches to the suspended fiber its body
//! names, else back to the thread's stack. [`resume`] returns the id of
//! whichever fiber came back. A switch is a hand-written x86-64 SysV
//! routine that saves the callee-saved registers, MXCSR and the x87
//! control word on the stack it leaves and restores them from the stack
//! it enters — no syscall, no OS wait.
//!
//! What the rest of the crate relies on, and why it is sound:
//!
//! * **The body never unwinds across the switch.** A fiber's body runs
//!   under `catch_unwind` in [`fiber_main`]; a panic that escapes it aborts
//!   the process. (`sched.rs` catches every process panic itself.)
//! * **A link outlives every switch to it.** Only a finished fiber leaves
//!   its thread's table. The links [`switch_to`] and a finishing fiber
//!   read through the table are of suspended fibers, the running fiber's
//!   is in it, and [`resume`] reads the link of the fiber that came back
//!   before it reaps that fiber.
//! * **A stack is unmapped only when nothing lives on it.** A finished
//!   fiber's last switch is its stack's last use. The context it switched
//!   to unmaps it as soon as it runs: [`resume`] on the thread's stack, or
//!   the fiber it finished into, as that one lands. A fiber that never
//!   started is dropped with its thread, body and all. A fiber still
//!   suspended mid-body when its thread exits *leaks* the mapping instead:
//!   its frames are never freed, so no reference into them (pinned data
//!   included) can dangle. The scheduler never leaves one — on an abort it
//!   resumes every suspended process so that it unwinds.
//! * **One fiber runs at a time per thread, and only it switches.**
//!   [`switch_to`] and [`suspend`] act on the fiber recorded as running in
//!   a thread-local and [`resume`] refuses to run on a fiber, so every
//!   fiber's resumer is the thread's own stack, whichever fiber the thread
//!   resumed. A switch never targets the running fiber, an unstarted one
//!   (only [`resume`] starts a fiber) or a finished one. A fiber never
//!   moves between threads: the table is a thread-local and holds raw
//!   pointers, so it is neither `Send` nor `Sync`.
//!
//! Miri cannot run the switch; the unit tests below (a ring of direct
//! hand-offs, a fiber finishing after one, the switches [`switch_to`]
//! refuses), every tier-1 simulation, `scripts/race.sh` and the schedcheck
//! suites run on it instead (`scripts/miri.sh`).

#![allow(unsafe_code, reason = "the fiber switch and stack mapping: simnet's one audited file")]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "shmcaffe-simnet runs simulated processes as fibers: port the context switch and the \
     stack mapping in crates/simnet/src/fiber.rs to this target"
);

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// Usable stack per fiber: std's default for a spawned thread. Pages are
/// mapped on first touch, so a process pays only for the depth it uses.
pub(crate) const STACK_BYTES: usize = 2 << 20;

/// The guard page below every stack (x86-64 Linux pages are 4 KiB; Rust
/// probes every page of a larger frame, so one page catches any overflow).
const GUARD_BYTES: usize = 4096;

/// Callee-saved state pushed by `shmcaffe_simnet_fiber_switch`: rbp, rbx,
/// r12–r15 and one word holding MXCSR (low half) and the x87 control word.
const SAVED_WORDS: usize = 7;

/// MXCSR and x87 control word at process start (all exceptions masked,
/// round to nearest, 64-bit x87 precision), as the SysV ABI requires on
/// entry to a function.
const INITIAL_FP_WORD: u64 = (0x037f << 32) | 0x1f80;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    /// Saves the callee-saved state on the current stack, stores the stack
    /// pointer to `*save`, loads `load` as the stack pointer and restores
    /// the state saved there; returns on the loaded stack.
    fn shmcaffe_simnet_fiber_switch(save: *mut *mut u8, load: *mut u8);
    /// First return address of a new fiber: calls `r13(r12)`, which never
    /// returns. Marks the end of the fiber's call stack for unwinders.
    fn shmcaffe_simnet_fiber_start();
}

std::arch::global_asm!(
    ".pushsection .text.shmcaffe_simnet_fiber,\"ax\",@progbits",
    ".p2align 4",
    ".globl shmcaffe_simnet_fiber_switch",
    ".hidden shmcaffe_simnet_fiber_switch",
    ".type shmcaffe_simnet_fiber_switch,@function",
    "shmcaffe_simnet_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size shmcaffe_simnet_fiber_switch, .-shmcaffe_simnet_fiber_switch",
    "",
    ".p2align 4",
    ".globl shmcaffe_simnet_fiber_start",
    ".hidden shmcaffe_simnet_fiber_start",
    ".type shmcaffe_simnet_fiber_start,@function",
    "shmcaffe_simnet_fiber_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size shmcaffe_simnet_fiber_start, .-shmcaffe_simnet_fiber_start",
    ".popsection",
);

/// A fiber's body. It returns the id of the fiber to switch straight to
/// once it has finished, or `None` to switch back to the thread's stack.
pub(crate) type Body = Box<dyn FnOnce() -> Option<usize>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Mapped; its body has not run.
    Unstarted,
    /// Resting at `sp`, mid-body.
    Suspended,
    Running,
    /// Its body returned; it never runs again.
    Finished,
}

/// One fiber's resting stack pointer and phase. Heap-allocated and reached
/// only through the raw pointer its [`Fiber`] and the fiber's first frame
/// share, so the address stays valid however the [`Fiber`] moves.
struct Link {
    id: usize,
    /// The fiber's stack pointer while it is not running.
    sp: *mut u8,
    phase: Phase,
    /// The body, until the fiber first runs.
    body: Option<Body>,
}

thread_local! {
    /// The fiber running on this thread; null while the thread's own stack
    /// runs. A fiber that switches back to the thread's stack leaves itself
    /// here, which is how [`resume`] learns which fiber came back.
    static RUNNING: Cell<*mut Link> = const { Cell::new(ptr::null_mut()) };
    /// The thread's own stack pointer while a fiber runs. Every fiber of the
    /// thread switches back to it, whichever fiber the thread resumed.
    static RESUMER_SP: Cell<*mut u8> = const { Cell::new(ptr::null_mut()) };
    /// This thread's fibers by id. Only a finished fiber leaves it, once
    /// the context it switched to for good runs (see [`reap`]).
    static TABLE: RefCell<Vec<Option<Fiber>>> = const { RefCell::new(Vec::new()) };
    /// The fiber that just finished by switching straight to the running
    /// one, which unmaps it as it lands ([`NO_FIBER`] when there is none).
    static RETIRED: Cell<usize> = const { Cell::new(NO_FIBER) };
}

/// [`RETIRED`] when no fiber waits to be unmapped.
const NO_FIBER: usize = usize::MAX;

/// A stack mapping: [`GUARD_BYTES`] of `PROT_NONE`, then the stack.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping.
    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: a fresh anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; the guard is its first page.
        unsafe {
            let base = mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            if base as isize == -1 {
                panic!("mapping a fiber stack failed: {}", std::io::Error::last_os_error());
            }
            let stack = Stack { base, len };
            if mprotect(base, GUARD_BYTES, PROT_NONE) != 0 {
                panic!("protecting a fiber guard page failed: {}", std::io::Error::last_os_error());
            }
            #[cfg(test)]
            tests::MAPPED.set(tests::MAPPED.get() + 1);
            stack
        }
    }

    /// One past the highest stack byte; 16-byte aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is exactly the mapping `map` made, and
        // the owning fiber guarantees no live frame remains on it.
        unsafe { munmap(self.base, self.len) };
        #[cfg(test)]
        tests::MAPPED.set(tests::MAPPED.get() - 1);
    }
}

/// A body on a stack of its own, owned by its thread's fiber table.
struct Fiber {
    /// From `Box::into_raw`; freed by `Drop`.
    link: *mut Link,
    /// `None` once leaked (see the module docs).
    stack: Option<Stack>,
}

impl Fiber {
    fn new(id: usize, body: Body) -> Fiber {
        let stack = Stack::map();
        let link = Box::into_raw(Box::new(Link {
            id,
            sp: ptr::null_mut(),
            phase: Phase::Unstarted,
            body: Some(body),
        }));
        // The frame the first switch pops: saved FP word, r15, r14, r13 =
        // `fiber_main`, r12 = the link, rbx, rbp, then the return address
        // `shmcaffe_simnet_fiber_start`, 24 bytes below the aligned top so
        // that its `call` enters `fiber_main` with the ABI's alignment.
        let frame: [u64; SAVED_WORDS + 1] = [
            INITIAL_FP_WORD,
            0,
            0,
            fiber_main as *const () as u64,
            link as u64,
            0,
            0,
            shmcaffe_simnet_fiber_start as *const () as u64,
        ];
        let sp = stack.top().wrapping_sub(16 + 8 * frame.len());
        // SAFETY: `sp .. sp + 64` lies in the top 80 bytes of the fresh,
        // writable, 16-byte-aligned stack mapping; `link` is the live box
        // just made.
        unsafe {
            ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len());
            (*link).sp = sp;
        }
        Fiber { link, stack: Some(stack) }
    }

    fn phase(&self) -> Phase {
        // SAFETY: `link` is this fiber's live box.
        unsafe { (*self.link).phase }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // SAFETY: `link` came from `Box::into_raw` and is freed only here.
        // A suspended fiber's frames still point at it, but they never run
        // again.
        let link = unsafe { Box::from_raw(self.link) };
        if link.body.is_none() && link.phase != Phase::Finished {
            std::mem::forget(self.stack.take());
        }
    }
}

/// Maps a stack for `body` as this thread's fiber `id`; nothing runs
/// until [`resume`] starts it. `body` must not unwind: a panic escaping it
/// aborts the process. A fiber the thread never starts is dropped with the
/// thread, body and all.
///
/// # Panics
///
/// Panics if the thread already has a fiber `id`, or if the kernel refuses
/// the mapping.
pub(crate) fn spawn(id: usize, body: Body) {
    let fiber = Fiber::new(id, body);
    TABLE.with_borrow_mut(|table| {
        if table.len() <= id {
            table.resize_with(id + 1, || None);
        }
        assert!(table[id].is_none(), "fiber {id} already exists");
        table[id] = Some(fiber);
    });
}

/// The link of this thread's fiber `id`, if it has one in a phase `keep`
/// accepts.
fn link_of(id: usize, keep: impl Fn(Phase) -> bool) -> Option<*mut Link> {
    TABLE.with_borrow(|table| {
        let fiber = table.get(id)?.as_ref()?;
        keep(fiber.phase()).then_some(fiber.link)
    })
}

/// Runs this thread's fiber `id`, unstarted or suspended, until some fiber
/// switches back to the thread's stack: `id` itself, or the last fiber of
/// a chain of [`switch_to`]s. Returns that fiber's id and whether it
/// finished, with every fiber that finished meanwhile already unmapped;
/// returns `None` without running anything if the thread has no unstarted
/// or suspended fiber `id`.
///
/// # Panics
///
/// Panics if called on a fiber: fibers hand off by [`switch_to`].
pub(crate) fn resume(id: usize) -> Option<(usize, bool)> {
    assert!(RUNNING.get().is_null(), "a fiber resumed another: fibers hand off by switch_to");
    let link = link_of(id, |p| matches!(p, Phase::Unstarted | Phase::Suspended))?;
    // SAFETY: `link` is the live link of a fiber in this thread's table.
    // Its `sp` is its initial frame or where it left its stack, which is
    // still mapped. The switch returns here once a fiber switches back to
    // `RESUMER_SP`, leaving in `RUNNING` its link, which stays in the
    // table until `reap` below.
    let (back, finished) = unsafe {
        enter(RESUMER_SP.with(Cell::as_ptr), link);
        let back = RUNNING.replace(ptr::null_mut());
        ((*back).id, (*back).phase == Phase::Finished)
    };
    if finished {
        reap(back);
    }
    Some((back, finished))
}

/// Switches the running fiber straight to this thread's suspended fiber
/// `id`, which runs in its place and, when it switches back to the
/// thread's stack, comes back to [`resume`] in its place. Returns `true`
/// once the caller is resumed or switched to again. Returns `false` at
/// once, without switching, if `id` is not a suspended fiber of this
/// thread: unstarted, finished, running (the caller itself) or absent.
///
/// # Panics
///
/// Panics if the calling code is not running on a fiber.
pub(crate) fn switch_to(id: usize) -> bool {
    let from = RUNNING.get();
    assert!(!from.is_null(), "switch_to outside a fiber");
    let Some(to) = link_of(id, |p| p == Phase::Suspended) else { return false };
    // SAFETY: `from` is the running fiber's live link and `to` a suspended
    // fiber's in this thread's table, which keeps both while a fiber runs;
    // `to`'s `sp` is where it left its still-mapped stack.
    unsafe {
        (*from).phase = Phase::Suspended;
        enter(ptr::addr_of_mut!((*from).sp), to);
    }
    reap(RETIRED.replace(NO_FIBER));
    true
}

/// Switches the running fiber back to the thread's stack, whose [`resume`]
/// returns this fiber's id; returns when the fiber is next resumed or
/// switched to.
///
/// # Panics
///
/// Panics if the calling code is not running on a fiber.
pub(crate) fn suspend() {
    let link = RUNNING.get();
    assert!(!link.is_null(), "a simulated process yielded outside its simulation's run");
    // SAFETY: `link` is the running fiber's live link, and `RESUMER_SP` is
    // where the thread's stack rests inside `resume`.
    unsafe {
        (*link).phase = Phase::Suspended;
        shmcaffe_simnet_fiber_switch(ptr::addr_of_mut!((*link).sp), RESUMER_SP.get());
    }
    reap(RETIRED.replace(NO_FIBER));
}

/// Drops this thread's finished fiber `id`, unmapping its stack; does
/// nothing for [`NO_FIBER`]. Called only by the context a finished fiber
/// switched to for good — the thread's stack in [`resume`], or the fiber
/// it finished into, as that one lands in [`switch_to`] or [`suspend`] —
/// so no frame is left on that stack.
fn reap(id: usize) {
    if id != NO_FIBER {
        let fiber = TABLE.with_borrow_mut(|table| table[id].take());
        debug_assert!(fiber.is_some_and(|f| f.phase() == Phase::Finished));
    }
}

/// Marks `to` running and switches to it, saving the current stack
/// pointer to `*save`.
///
/// # Safety
///
/// `save` must be where the context being left keeps its stack pointer,
/// and `to` the live link of an unstarted or suspended fiber of this
/// thread whose stack is mapped.
unsafe fn enter(save: *mut *mut u8, to: *mut Link) {
    // SAFETY: the caller's contract.
    unsafe {
        (*to).phase = Phase::Running;
        RUNNING.set(to);
        shmcaffe_simnet_fiber_switch(save, (*to).sp);
    }
}

/// The first Rust frame of every fiber: runs the body, marks the fiber
/// finished and leaves its stack for good, for the fiber the body named
/// if that one is suspended, else for the thread's stack. Whichever
/// context it switches to unmaps the stack ([`reap`]).
extern "C" fn fiber_main(link: *mut Link) -> ! {
    // SAFETY: `link` is the boxed link `Fiber::new` wrote into the initial
    // frame; its fiber is running, so the box is alive.
    let body = unsafe { (*link).body.take() }.expect("a fiber starts once");
    let Ok(next) = catch_unwind(AssertUnwindSafe(body)) else { std::process::abort() };
    let to = next.and_then(|id| link_of(id, |p| p == Phase::Suspended));
    // SAFETY: as above, and `to` is as in `switch_to`; after this switch
    // nothing runs on this stack again.
    unsafe {
        (*link).phase = Phase::Finished;
        match to {
            Some(to) => {
                RETIRED.set((*link).id);
                enter(ptr::addr_of_mut!((*link).sp), to);
            }
            None => shmcaffe_simnet_fiber_switch(ptr::addr_of_mut!((*link).sp), RESUMER_SP.get()),
        }
    }
    unreachable!("a finished fiber was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    thread_local! {
        /// Fiber stacks this test thread has mapped and not unmapped.
        pub(super) static MAPPED: Cell<usize> = const { Cell::new(0) };
    }

    type Log = Rc<RefCell<Vec<usize>>>;

    #[test]
    fn a_fiber_runs_in_steps_and_finishes() {
        let log: Log = Rc::default();
        let inner = Rc::clone(&log);
        spawn(
            0,
            Box::new(move || {
                for i in 0..3 {
                    inner.borrow_mut().push(i);
                    suspend();
                }
                None
            }),
        );
        for expect in 1..=3 {
            assert_eq!(resume(0), Some((0, false)));
            assert_eq!(log.borrow().len(), expect);
        }
        assert_eq!(resume(0), Some((0, true)));
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
        assert_eq!(MAPPED.get(), 0, "a finished fiber's stack is unmapped");
        assert_eq!(resume(0), None, "a finished fiber is gone");
    }

    #[test]
    fn an_unstarted_fiber_drops_its_body_with_its_thread() {
        let token = std::sync::Arc::new(());
        let held = std::sync::Arc::clone(&token);
        std::thread::spawn(move || {
            spawn(
                0,
                Box::new(move || {
                    drop(held);
                    None
                }),
            );
        })
        .join()
        .expect("the thread exits");
        assert_eq!(std::sync::Arc::strong_count(&token), 1);
    }

    /// Three fibers pass the thread around a ring by `switch_to` three
    /// times, then each finishes straight into its successor: `resume`
    /// sees only the last one come back, and all three stacks are gone.
    #[test]
    fn a_ring_of_direct_hand_offs_comes_back_once() {
        let log: Log = Rc::default();
        for id in 0..3 {
            let log = Rc::clone(&log);
            spawn(
                id,
                Box::new(move || {
                    suspend();
                    for _ in 0..3 {
                        log.borrow_mut().push(id);
                        assert!(switch_to((id + 1) % 3));
                    }
                    Some((id + 1) % 3)
                }),
            );
            assert_eq!(resume(id), Some((id, false)));
        }
        assert_eq!(MAPPED.get(), 3);
        assert_eq!(resume(0), Some((2, true)));
        assert_eq!(*log.borrow(), [0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(MAPPED.get(), 0, "the fibers that finished into another are unmapped too");
    }

    /// Fiber 0 switches straight to fiber 1, which finishes: `resume(0)`
    /// reports fiber 1 by its own id and unmaps its stack, while fiber 0
    /// stays suspended inside its `switch_to` until it is resumed.
    #[test]
    fn a_fiber_finishing_after_a_direct_switch_comes_back_as_itself() {
        let log: Log = Rc::default();
        let (l0, l1) = (Rc::clone(&log), Rc::clone(&log));
        spawn(
            1,
            Box::new(move || {
                suspend();
                l1.borrow_mut().push(1);
                None
            }),
        );
        assert_eq!(resume(1), Some((1, false)));
        spawn(
            0,
            Box::new(move || {
                assert!(switch_to(1));
                l0.borrow_mut().push(0);
                None
            }),
        );
        assert_eq!(resume(0), Some((1, true)));
        assert_eq!(*log.borrow(), [1]);
        assert_eq!(MAPPED.get(), 1, "only fiber 0's stack is still mapped");
        assert_eq!(resume(1), None);
        assert_eq!(resume(0), Some((0, true)));
        assert_eq!(*log.borrow(), [1, 0]);
        assert_eq!(MAPPED.get(), 0);
    }

    /// `switch_to` returns `false` without switching for an unstarted
    /// fiber, a finished one (fiber 2 finishes straight into fiber 0, which
    /// unmaps it as it lands), the running fiber itself and an id with no
    /// fiber.
    #[test]
    fn switch_to_refuses_unstarted_finished_running_and_absent_fibers() {
        let log: Log = Rc::default();
        let l0 = Rc::clone(&log);
        spawn(
            0,
            Box::new(move || {
                suspend();
                assert_eq!(MAPPED.get(), 2, "fiber 2's stack is gone");
                for id in [1, 2, 0, 9] {
                    assert!(!switch_to(id), "switched to fiber {id}");
                    l0.borrow_mut().push(id);
                }
                None
            }),
        );
        assert_eq!(resume(0), Some((0, false)));
        spawn(1, Box::new(|| None));
        spawn(2, Box::new(|| Some(0)));
        assert_eq!(resume(2), Some((0, true)));
        assert_eq!(*log.borrow(), [1, 2, 0, 9]);
        assert_eq!(resume(1), Some((1, true)));
        assert_eq!(MAPPED.get(), 0);
    }
}
