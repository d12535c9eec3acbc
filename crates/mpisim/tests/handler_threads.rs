//! A handler session runs every rank on the caller's thread: it spawns no
//! OS thread, at open or in any epoch. This file holds one test so that
//! no other test's threads land in its count.

use std::thread::{self, ThreadId};

use bytes::Bytes;
use fastann_mpisim::{Cluster, Handler, Msg, Rank, SimConfig, Want};

/// Number of threads the process started while `f` ran. std numbers its
/// threads from one process-wide counter, so the ids of two probe threads
/// bracket every thread started between them.
fn threads_started<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let probe = || {
        let id = thread::spawn(|| thread::current().id())
            .join()
            .expect("probe thread");
        let digits: String = format!("{id:?}")
            .chars()
            .filter(char::is_ascii_digit)
            .collect();
        digits.parse::<u64>().expect("a ThreadId prints its number")
    };
    let before = probe();
    let out = f();
    (out, probe() - before - 1)
}

/// Answers each of the root's pings with a pong, until the root's stop;
/// reports the thread it ran on.
struct Pong {
    done: bool,
    ran_on: Vec<ThreadId>,
}

const PING: u64 = 1;
const STOP: u64 = 2;

impl Handler<()> for Pong {
    type Out = Vec<ThreadId>;

    fn start(_: &mut Rank, _: &()) -> Self {
        Pong {
            done: false,
            ran_on: vec![thread::current().id()],
        }
    }

    fn waits_on(&self) -> Option<Want> {
        (!self.done).then_some(Want {
            src: Some(0),
            tag: None,
        })
    }

    fn on_msg(&mut self, rank: &mut Rank, _: &(), msg: Msg) {
        self.ran_on.push(thread::current().id());
        match msg.tag {
            PING => rank.send_bytes(0, PING, msg.payload),
            _ => self.done = true,
        }
    }

    fn finish(self, _: &mut Rank, _: &()) -> Vec<ThreadId> {
        self.ran_on
    }
}

#[test]
fn a_handler_session_runs_on_the_callers_thread_and_starts_none() {
    let caller = thread::current().id();
    let ((), started) = threads_started(|| {
        let mut s = Cluster::new(SimConfig::new(5)).handler_session::<(), Pong>();
        for _ in 0..8 {
            let e = s.epoch((), |rank, _| {
                for round in 0..4u8 {
                    for j in 1..5 {
                        rank.send_bytes(j, PING, Bytes::from(vec![round]));
                    }
                    for j in 1..5 {
                        assert_eq!(rank.recv(Some(j), Some(PING)).payload[..], [round]);
                    }
                }
                for j in 1..5 {
                    rank.send_bytes(j, STOP, Bytes::new());
                }
            });
            e.conservation.assert_clean();
            for ran_on in e.workers {
                // start, four pings and the stop
                assert_eq!(ran_on, vec![caller; 6]);
            }
        }
    });
    assert_eq!(started, 0, "a handler session started threads");
    // the count is live: a thread-per-rank cluster starts its ranks 1..n
    let (_, started) = threads_started(|| Cluster::new(SimConfig::new(5)).run(|rank| rank.rank()));
    assert_eq!(started, 4);
}
