//! Stackful fibers: the simulator's one audited `unsafe` file.
//!
//! Every simulated process of a run is a [`Fiber`] on the run's one OS
//! thread (DESIGN.md §5k). A fiber owns a lazily mapped stack of
//! [`STACK_BYTES`] with a `PROT_NONE` guard page below it, so a process
//! that recurses too deep dies on the guard page (SIGSEGV) instead of
//! overwriting memory. [`Fiber::resume`] switches from the caller's stack
//! to the fiber's; [`suspend`], called on the fiber, switches back. A switch
//! is a hand-written x86-64 SysV routine that saves the callee-saved
//! registers, MXCSR and the x87 control word on the stack it leaves and
//! restores them from the stack it enters — no syscall, no OS wait.
//!
//! What the rest of the crate relies on, and why it is sound:
//!
//! * **The body never unwinds across the switch.** A fiber's body runs
//!   under `catch_unwind` in [`fiber_main`]; a panic that escapes it aborts
//!   the process. (`sched.rs` catches every process panic itself.)
//! * **A stack is unmapped only when nothing lives on it.** Dropping a
//!   finished fiber unmaps its stack; dropping a never-resumed one drops
//!   its body and unmaps it. Dropping a fiber that is suspended mid-body
//!   *leaks* the mapping instead: its frames are never freed, so no
//!   reference into them (pinned data included) can dangle. The scheduler
//!   never does this — on an abort it resumes every suspended process so
//!   that it unwinds.
//! * **One fiber runs at a time per thread.** [`Fiber::resume`] records
//!   the running fiber in a thread-local and restores the previous one on
//!   return, so [`suspend`] always switches to the resumer it came from.
//!   A fiber never moves between threads: [`Fiber`] is neither `Send` nor
//!   `Sync`.
//!
//! Miri cannot run the switch; every tier-1 simulation, `scripts/race.sh`
//! and the schedcheck suites run on it instead (`scripts/miri.sh`).

#![allow(unsafe_code, reason = "the fiber switch and stack mapping: simnet's one audited file")]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "shmcaffe-simnet runs simulated processes as fibers: port the context switch and the \
     stack mapping in crates/simnet/src/fiber.rs to this target"
);

use std::cell::Cell;
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

/// One fiber's two resting stack pointers. Heap-allocated and reached
/// only through the raw pointer its [`Fiber`] and the fiber's first frame
/// share, so the address stays valid however the [`Fiber`] moves.
struct Link {
    /// The fiber's stack pointer while it is suspended.
    fiber_sp: *mut u8,
    /// The resumer's stack pointer while the fiber runs.
    resumer_sp: *mut u8,
    /// The body, until the first resume starts it.
    body: Option<Box<dyn FnOnce()>>,
    finished: bool,
}

thread_local! {
    /// The fiber running on this thread, if any.
    static RUNNING: Cell<*mut Link> = const { Cell::new(ptr::null_mut()) };
}

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
    }
}

/// A body on a stack of its own, run by [`Fiber::resume`] until it calls
/// [`suspend`] or returns.
pub(crate) struct Fiber {
    /// From `Box::into_raw`; freed by `Drop`.
    link: *mut Link,
    /// `None` once leaked (see the module docs).
    stack: Option<Stack>,
}

impl Fiber {
    /// Maps a stack for `body`; nothing runs until the first
    /// [`Fiber::resume`]. `body` must not unwind: a panic escaping it
    /// aborts the process.
    pub(crate) fn new(body: Box<dyn FnOnce()>) -> Fiber {
        let stack = Stack::map();
        let link = Box::into_raw(Box::new(Link {
            fiber_sp: ptr::null_mut(),
            resumer_sp: ptr::null_mut(),
            body: Some(body),
            finished: false,
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
            (*link).fiber_sp = sp;
        }
        Fiber { link, stack: Some(stack) }
    }

    /// Runs the fiber until it next calls [`suspend`] (returns `false`) or
    /// its body returns (returns `true`).
    ///
    /// # Panics
    ///
    /// Panics if the fiber has already finished.
    pub(crate) fn resume(&mut self) -> bool {
        let link = self.link;
        // SAFETY: `link` is this fiber's live box. `fiber_sp` is where the
        // fiber last suspended (or its initial frame), on a stack that is
        // still mapped; the switch returns here once the fiber suspends or
        // finishes.
        unsafe {
            assert!(!(*link).finished, "resumed a finished fiber");
            let outer = RUNNING.with(|r| r.replace(link));
            shmcaffe_simnet_fiber_switch(ptr::addr_of_mut!((*link).resumer_sp), (*link).fiber_sp);
            RUNNING.with(|r| r.set(outer));
            (*link).finished
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        // SAFETY: `link` came from `Box::into_raw` and is freed only here.
        // A suspended fiber's frames still point at it, but they never run
        // again.
        let link = unsafe { Box::from_raw(self.link) };
        if link.body.is_none() && !link.finished {
            std::mem::forget(self.stack.take());
        }
    }
}

/// Switches from the running fiber back to the [`Fiber::resume`] that ran
/// it; returns when the fiber is next resumed.
///
/// # Panics
///
/// Panics if the calling code is not running on a fiber.
pub(crate) fn suspend() {
    let link = RUNNING.with(Cell::get);
    assert!(!link.is_null(), "a simulated process yielded outside its simulation's run");
    // SAFETY: `link` is the running fiber's link, alive while its
    // `resume` call rests inside the switch at `resumer_sp`.
    unsafe {
        shmcaffe_simnet_fiber_switch(ptr::addr_of_mut!((*link).fiber_sp), (*link).resumer_sp)
    };
}

/// The first Rust frame of every fiber: runs the body, marks the link
/// finished and switches back for good.
extern "C" fn fiber_main(link: *mut Link) -> ! {
    // SAFETY: `link` is the boxed link `Fiber::new` wrote into the initial
    // frame; its fiber is running, so the box is alive.
    let body = unsafe { (*link).body.take() }.expect("a fiber starts once");
    if catch_unwind(AssertUnwindSafe(body)).is_err() {
        std::process::abort();
    }
    // SAFETY: as above; after this switch nothing runs on this stack again.
    unsafe {
        (*link).finished = true;
        shmcaffe_simnet_fiber_switch(ptr::addr_of_mut!((*link).fiber_sp), (*link).resumer_sp);
    }
    unreachable!("a finished fiber was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn a_fiber_runs_in_steps_and_finishes() {
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let mut fiber = Fiber::new(Box::new(move || {
            for i in 0..3 {
                inner.borrow_mut().push(i);
                suspend();
            }
        }));
        for expect in 1..=3 {
            assert!(!fiber.resume());
            assert_eq!(log.borrow().len(), expect);
        }
        assert!(fiber.resume());
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn an_unstarted_fiber_drops_its_body() {
        let token = Rc::new(());
        let held = Rc::clone(&token);
        let fiber = Fiber::new(Box::new(move || drop(held)));
        assert_eq!(Rc::strong_count(&token), 2);
        drop(fiber);
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
