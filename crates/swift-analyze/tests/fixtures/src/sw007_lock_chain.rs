//! SW007 fixture: order taint flows through a lock-then-iterate chain
//! into an event-scheduling sink. A line-local scanner that only
//! matches `name.iter()` against names *declared* as HashMap is blind
//! to this shape: the `lock().unwrap()` hop hides the name.

use std::collections::HashMap;
use std::sync::Mutex;

pub struct Pending {
    queue: Mutex<HashMap<u64, u64>>,
}

impl Pending {
    pub fn flush(&self, sched: &mut Scheduler) {
        for (&task, &at) in self.queue.lock().unwrap().iter() {
            sched.schedule(task, at);
        }
    }
}
