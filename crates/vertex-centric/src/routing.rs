//! Message buffers and routing between simulated workers.
//!
//! Delivery order is part of the contract: every vertex receives its messages in ascending
//! sender-vertex order (one sender's messages in the order it sent them), whatever the worker
//! count. Programs whose compute is order-sensitive — floating-point sums over the received
//! messages — therefore give the same result on any number of workers.

/// A message in flight: `(destination vertex, sending vertex, payload)`.
pub type Envelope<M> = (u32, u32, M);

/// Outgoing message buffers of one worker during one superstep, bucketed by destination worker.
///
/// The buffers double as the communication accounting point: every `push` records whether the
/// destination vertex lives on the sending worker (local) or on another worker (remote), and
/// how many bytes the message would occupy on the wire.
#[derive(Debug)]
pub struct WorkerOutbox<M> {
    /// `buffers[w]` holds the envelopes addressed to worker `w`, in send order.
    buffers: Vec<Vec<Envelope<M>>>,
    /// Index of the sending worker (used to classify local vs. remote).
    sender: usize,
    /// Total messages pushed.
    pub messages: u64,
    /// Messages addressed to a different worker.
    pub remote_messages: u64,
    /// Total estimated bytes pushed.
    pub bytes: u64,
    /// Estimated bytes addressed to a different worker.
    pub remote_bytes: u64,
}

impl<M> WorkerOutbox<M> {
    /// Creates an empty outbox for `sender` in a cluster of `num_workers` workers.
    pub fn new(sender: usize, num_workers: usize) -> Self {
        WorkerOutbox {
            buffers: (0..num_workers).map(|_| Vec::new()).collect(),
            sender,
            messages: 0,
            remote_messages: 0,
            bytes: 0,
            remote_bytes: 0,
        }
    }

    /// Number of workers the outbox can address.
    pub fn num_workers(&self) -> usize {
        self.buffers.len()
    }

    /// Queues a message from `from_vertex` for `dest_vertex`, recording its estimated `size`
    /// in bytes.
    pub fn push(&mut self, from_vertex: u32, dest_vertex: u32, message: M, size: usize) {
        let dest_worker = dest_vertex as usize % self.buffers.len();
        self.messages += 1;
        self.bytes += size as u64;
        if dest_worker != self.sender {
            self.remote_messages += 1;
            self.remote_bytes += size as u64;
        }
        self.buffers[dest_worker].push((dest_vertex, from_vertex, message));
    }

    /// Consumes the outbox, returning the per-destination-worker buffers.
    pub fn into_buffers(self) -> Vec<Vec<Envelope<M>>> {
        self.buffers
    }
}

/// Routes the outboxes of all workers into per-destination-worker inboxes.
///
/// `inboxes[w]` receives every message addressed to a vertex owned by worker `w`, in ascending
/// sender-vertex order and, for one sender, in send order (see the module docs). Each sender
/// worker's buffer is already one ascending run (a worker computes its vertices in id order),
/// so the stable sort only merges `num_workers` runs.
pub fn route<M>(outboxes: Vec<WorkerOutbox<M>>) -> Vec<Vec<Envelope<M>>> {
    let num_workers = outboxes.first().map_or(0, |o| o.num_workers());
    let mut inboxes: Vec<Vec<Envelope<M>>> = (0..num_workers).map(|_| Vec::new()).collect();
    let mut all_buffers: Vec<Vec<Vec<Envelope<M>>>> =
        outboxes.into_iter().map(|o| o.into_buffers()).collect();
    for (dest, inbox) in inboxes.iter_mut().enumerate() {
        for sender_buffers in all_buffers.iter_mut() {
            inbox.append(&mut sender_buffers[dest]);
        }
        inbox.sort_by_key(|&(_, from, _)| from);
    }
    inboxes
}

/// Groups an inbox by destination vertex, applying an optional combiner.
///
/// Returns a vector indexed by the worker-local vertex index (`vertex / num_workers`), where
/// each entry lists the messages for that vertex. The second return value is the number of
/// messages eliminated by combining.
pub fn group_by_vertex<M, F>(
    inbox: Vec<Envelope<M>>,
    num_workers: usize,
    local_vertex_count: usize,
    combiner: F,
) -> (Vec<Vec<M>>, u64)
where
    F: Fn(&M, &M) -> Option<M>,
{
    let mut grouped: Vec<Vec<M>> = (0..local_vertex_count).map(|_| Vec::new()).collect();
    let mut combined = 0u64;
    for (vertex, _, message) in inbox {
        let local = vertex as usize / num_workers;
        let slot = &mut grouped[local];
        if let Some(last) = slot.last() {
            if let Some(merged) = combiner(last, &message) {
                *slot.last_mut().expect("slot non-empty") = merged;
                combined += 1;
                continue;
            }
        }
        slot.push(message);
    }
    (grouped, combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_classifies_local_and_remote() {
        let mut outbox: WorkerOutbox<u64> = WorkerOutbox::new(0, 2);
        outbox.push(4, 0, 10, 8); // vertex 0 -> worker 0 (local)
        outbox.push(4, 1, 20, 8); // vertex 1 -> worker 1 (remote)
        outbox.push(4, 2, 30, 8); // vertex 2 -> worker 0 (local)
        outbox.push(4, 3, 40, 8); // vertex 3 -> worker 1 (remote)
        assert_eq!(outbox.messages, 4);
        assert_eq!(outbox.remote_messages, 2);
        assert_eq!(outbox.bytes, 32);
        assert_eq!(outbox.remote_bytes, 16);
        let buffers = outbox.into_buffers();
        assert_eq!(buffers[0], vec![(0, 4, 10), (2, 4, 30)]);
        assert_eq!(buffers[1], vec![(1, 4, 20), (3, 4, 40)]);
    }

    #[test]
    fn route_concatenates_in_sender_order() {
        // Worker 0 owns the even senders, worker 1 the odd ones; vertex 1 must still see
        // senders 0, 1, 2, 3 in that order, with sender 2's two messages in send order.
        let mut o0: WorkerOutbox<&str> = WorkerOutbox::new(0, 2);
        o0.push(0, 1, "s0", 1);
        o0.push(2, 1, "s2-first", 1);
        o0.push(2, 1, "s2-second", 1);
        let mut o1: WorkerOutbox<&str> = WorkerOutbox::new(1, 2);
        o1.push(1, 1, "s1", 1);
        o1.push(3, 1, "s3", 1);
        o1.push(3, 0, "s3-to-0", 1);
        let inboxes = route(vec![o0, o1]);
        assert_eq!(inboxes[0], vec![(0, 3, "s3-to-0")]);
        let received: Vec<&str> = inboxes[1].iter().map(|&(_, _, m)| m).collect();
        assert_eq!(received, ["s0", "s1", "s2-first", "s2-second", "s3"]);
    }

    #[test]
    fn group_by_vertex_without_combiner() {
        let inbox = vec![(0u32, 5u32, 1u32), (2, 5, 2), (0, 7, 3)];
        // 2 workers; this is worker 0 owning vertices 0 and 2 (local indices 0 and 1).
        let (grouped, combined) = group_by_vertex(inbox, 2, 2, |_, _| None);
        assert_eq!(grouped[0], vec![1, 3]);
        assert_eq!(grouped[1], vec![2]);
        assert_eq!(combined, 0);
    }

    #[test]
    fn group_by_vertex_with_summing_combiner() {
        let inbox = vec![(0u32, 1u32, 1u32), (0, 3, 2), (0, 5, 3), (2, 5, 10)];
        let (grouped, combined) = group_by_vertex(inbox, 2, 2, |a, b| Some(a + b));
        assert_eq!(grouped[0], vec![6]);
        assert_eq!(grouped[1], vec![10]);
        assert_eq!(combined, 2);
    }

    #[test]
    fn route_empty_outboxes() {
        let inboxes: Vec<Vec<Envelope<u8>>> = route(Vec::new());
        assert!(inboxes.is_empty());
    }
}
