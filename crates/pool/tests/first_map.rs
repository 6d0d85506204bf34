//! The first map of a process fans out: workers that the map itself
//! spawns count as free helpers. Alone in its binary, so the map below
//! really is the first one in the process.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

use fgbs_pool::WorkPool;

#[test]
fn first_map_of_a_process_gets_a_helper() {
    // Each item signals the other and waits for the other's signal, so
    // both can succeed only when the two items run at the same time.
    let (to_1, from_0): (Sender<()>, Receiver<()>) = channel();
    let (to_0, from_1): (Sender<()>, Receiver<()>) = channel();
    let senders = [to_1, to_0];
    let receivers = [Mutex::new(from_1), Mutex::new(from_0)];
    let met = WorkPool::new(2).map_indexed(2, |i| {
        senders[i].send(()).expect("the other item's receiver lives");
        receivers[i]
            .lock()
            .expect("each receiver has one user")
            .recv_timeout(Duration::from_secs(10))
            .is_ok()
    });
    assert_eq!(met, vec![true, true], "the two items ran one after the other");
}
