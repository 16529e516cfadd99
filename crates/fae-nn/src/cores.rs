//! The one fan-out. Every compute thread in the workspace starts in
//! [`fan_out`], which gives each task its caller's [`share`] of the cores
//! divided among the tasks, so work that runs beside other work splits
//! the cores instead of oversubscribing them (DESIGN.md §3).
#![expect(
    clippy::disallowed_methods,
    reason = "the fan-out is the one place compute threads start and the core count is read"
)]

use std::cell::Cell;
use std::sync::OnceLock;

thread_local!(static SHARE: Cell<usize> = Cell::new(host_cores()));

fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// The cores the calling thread computes on: every core of the host, read
/// once per process, unless it runs a task of a [`fan_out`], the only code
/// that sets it.
pub fn share() -> usize {
    SHARE.with(Cell::get)
}

/// Gives the calling thread its share back when dropped, panic or not.
struct Restore(usize);

impl Drop for Restore {
    fn drop(&mut self) {
        SHARE.set(self.0);
    }
}

/// Runs `task` on every item, item 0 on the calling thread and the others
/// on scoped threads, and returns the results in index order. Each task
/// computes on the caller's [`share`] divided by the number of items (at
/// least one core), and the caller gets its share back afterwards. A
/// task's panic reaches the caller with that task's own payload. A single
/// item runs on the caller and starts no thread.
pub fn fan_out<T: Send, R: Send>(items: Vec<T>, task: impl Fn(T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items.into_iter().map(task).collect();
    }
    let caller = share();
    let each = (caller / items.len()).max(1);
    let task = &task;
    let mut items = items.into_iter();
    let first = items.next();
    std::thread::scope(|scope| {
        let others: Vec<_> = items
            .map(|item| {
                scope.spawn(move || {
                    SHARE.set(each);
                    task(item)
                })
            })
            .collect();
        let restore = Restore(caller);
        SHARE.set(each);
        let mut out: Vec<R> = first.into_iter().map(task).collect();
        drop(restore);
        for h in others {
            out.push(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;

    /// Runs `f` on a share of `cores`, then gives this test thread the
    /// share it had.
    fn with_share<T>(cores: usize, f: impl FnOnce() -> T) -> T {
        let _restore = Restore(share());
        SHARE.set(cores);
        f()
    }

    #[test]
    fn results_come_back_in_index_order() {
        // Task k waits until task k + 1 drops the sender of its channel, so
        // the tasks finish last to first. No task holds the last sender.
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..9).map(|_| mpsc::channel::<()>()).unzip();
        let release_previous = std::iter::once(None).chain(senders.into_iter().map(Some));
        let items = receivers.into_iter().zip(release_previous).enumerate().collect();
        let out = fan_out(items, |(k, (after_next, release_previous))| {
            let _ = after_next.recv();
            drop(release_previous);
            k * k
        });
        assert_eq!(out, (0..9).map(|k| k * k).collect::<Vec<_>>());
        assert!(fan_out(Vec::<u8>::new(), |_| ()).is_empty());
    }

    #[test]
    fn item_zero_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ids = fan_out(vec![(); 3], |()| thread::current().id());
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller));
        assert_ne!(ids[1], ids[2]);
    }

    #[test]
    fn one_item_starts_no_thread() {
        let caller = thread::current().id();
        let shares = fan_out(vec![()], |()| (thread::current().id(), share()));
        assert_eq!(shares, [(caller, share())]);
    }

    #[test]
    fn each_task_gets_its_share_and_the_caller_gets_its_own_back() {
        with_share(2, || {
            assert_eq!(fan_out(vec![(); 2], |()| share()), [1, 1]);
            assert_eq!(share(), 2);
            assert_eq!(fan_out(vec![(); 3], |()| share()), [1, 1, 1]);
            assert_eq!(share(), 2);
            for failing in [0, 1] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    fan_out(vec![0, 1], |k| assert_ne!(k, failing))
                }));
                assert!(caught.is_err());
                assert_eq!(share(), 2, "after task {failing} panicked");
            }
        });
        with_share(4, || assert_eq!(fan_out(vec![(); 2], |()| share()), [2, 2]));
    }

    #[test]
    fn a_tasks_panic_reaches_the_caller_with_its_own_message() {
        for failing in [0, 2] {
            let caught = catch_unwind(|| {
                fan_out(vec![0, 1, 2], |k| {
                    if k == failing {
                        panic!("task {k} failed");
                    }
                })
            });
            let payload = caught.expect_err("the task's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(&*format!("task {failing} failed"))
            );
        }
    }
}
