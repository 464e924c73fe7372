//! The wall-clock watchdog every liveness test runs its simulation under:
//! a run that never returns fails after 20 s instead of hanging the suite
//! until the gate's outer `timeout` fires.

use std::time::Duration;

/// Runs `f` on a helper thread and fails if it has not returned within
/// 20 s of wall time (a hung simulation never returns).
#[allow(
    clippy::disallowed_methods,
    reason = "a wall-clock watchdog around the simulation, not a process inside it"
)]
pub fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("run did not terminate within 20 s of wall time");
    helper.join().expect("helper thread exits once it has reported");
    out
}
