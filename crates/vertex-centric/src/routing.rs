//! Message delivery between simulated workers: post once, pull along in-edges.
//!
//! A vertex broadcasts with [`crate::Context::send_to_neighbors`]. The message is stored once,
//! in its worker's post list for the superstep, and the per-out-edge traffic is counted at that
//! moment. In the next superstep every vertex reads the posts of its in-neighbors (the
//! transpose in [`crate::Topology::in_neighbors`]) by reference. No message is copied per
//! edge, and no per-vertex inbox is allocated.
//!
//! Delivery order is part of the contract: every vertex receives its messages in ascending
//! sender-vertex order, one sender's messages in the order it sent them, whatever the worker
//! count. Programs whose compute is order-sensitive — floating-point sums over the received
//! messages — therefore give the same result on any number of workers.

/// Message traffic of one worker in one superstep, counted per out-edge.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Traffic {
    /// Messages sent (one per out-edge of a posting vertex).
    pub messages: u64,
    /// Messages whose receiver lives on a different worker.
    pub remote_messages: u64,
    /// Estimated bytes sent.
    pub bytes: u64,
    /// Estimated bytes sent to a different worker.
    pub remote_bytes: u64,
}

/// The messages one worker's vertices posted in one superstep.
pub(crate) struct WorkerPosts<M> {
    messages: Vec<M>,
    /// The posts of local vertex `l` are `messages[offsets[l]..offsets[l + 1]]`.
    offsets: Vec<usize>,
    pub traffic: Traffic,
}

impl<M> WorkerPosts<M> {
    /// An empty post list.
    pub fn new() -> Self {
        WorkerPosts {
            messages: Vec::new(),
            offsets: vec![0],
            traffic: Traffic::default(),
        }
    }

    /// Whether any vertex posted.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Posts `message` for the current vertex, which has `degree` out-neighbors, `remote` of
    /// them on other workers; every out-edge carries an estimated `size` bytes.
    pub fn post(&mut self, message: M, size: usize, degree: usize, remote: usize) {
        self.messages.push(message);
        let (size, degree, remote) = (size as u64, degree as u64, remote as u64);
        self.traffic.messages += degree;
        self.traffic.remote_messages += remote;
        self.traffic.bytes += size * degree;
        self.traffic.remote_bytes += size * remote;
    }

    /// Closes the current vertex's posts; called once for every local vertex, in order.
    pub fn end_vertex(&mut self) {
        self.offsets.push(self.messages.len());
    }

    /// The posts of local vertex `local`.
    fn of(&self, local: usize) -> &[M] {
        &self.messages[self.offsets[local]..self.offsets[local + 1]]
    }
}

/// Fills `inbox` with the posts of `senders` (a receiver's in-neighbors, ascending) from the
/// previous superstep's per-worker `posts`: sender by sender, each sender's posts in post
/// order, and once per edge when a sender has several edges to the receiver.
pub(crate) fn gather<'a, M>(inbox: &mut Vec<&'a M>, senders: &[u32], posts: &'a [WorkerPosts<M>]) {
    inbox.clear();
    let num_workers = posts.len();
    for copies in senders.chunk_by(|a, b| a == b) {
        let sender = copies[0] as usize;
        for message in posts[sender % num_workers].of(sender / num_workers) {
            inbox.extend(std::iter::repeat_n(message, copies.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The post lists of 2 workers: `lists[w][l]` is what local vertex `l` of worker `w`
    /// posted.
    fn posts_of(lists: [&[&[&'static str]]; 2]) -> Vec<WorkerPosts<&'static str>> {
        lists
            .iter()
            .map(|vertices| {
                let mut posts = WorkerPosts::new();
                for messages in vertices.iter() {
                    for &m in messages.iter() {
                        posts.post(m, 1, 1, 0);
                    }
                    posts.end_vertex();
                }
                posts
            })
            .collect()
    }

    #[test]
    fn posts_classify_local_and_remote() {
        // One 8-byte post to 4 out-neighbors, 2 of them remote; one 2-byte post to 3, none
        // remote.
        let mut posts: WorkerPosts<u64> = WorkerPosts::new();
        posts.post(10, 8, 4, 2);
        posts.end_vertex();
        posts.post(20, 2, 3, 0);
        posts.end_vertex();
        let expected = Traffic {
            messages: 7,
            remote_messages: 2,
            bytes: 38,
            remote_bytes: 16,
        };
        assert_eq!(posts.traffic, expected);
        assert_eq!(posts.of(0), &[10]);
        assert_eq!(posts.of(1), &[20]);
    }

    #[test]
    fn route_concatenates_in_sender_order() {
        // Worker 0 owns the even senders, worker 1 the odd ones; the receiver must still see
        // senders 0, 1, 2, 3 in that order, with sender 2's two posts in post order.
        let posts = posts_of([&[&["s0"], &["s2-first", "s2-second"]], &[&["s1"], &["s3"]]]);
        let mut inbox = Vec::new();
        gather(&mut inbox, &[0, 1, 2, 3], &posts);
        assert_eq!(inbox, [&"s0", &"s1", &"s2-first", &"s2-second", &"s3"]);
    }

    #[test]
    fn gather_reads_only_the_receivers_senders() {
        // Two receivers with disjoint senders; a repeated edge delivers every post once per
        // copy, a sender's posts still adjacent and in post order.
        let posts = posts_of([&[&["a"], &["c1", "c2"]], &[&["b"], &[]]]);
        let mut inbox = Vec::new();
        gather(&mut inbox, &[1, 2, 2], &posts);
        assert_eq!(inbox, [&"b", &"c1", &"c1", &"c2", &"c2"]);
        gather(&mut inbox, &[0, 3], &posts);
        assert_eq!(inbox, [&"a"]);
    }

    #[test]
    fn gather_without_posts_is_empty() {
        let posts = posts_of([&[&[], &[]], &[&[]]]);
        let mut inbox = vec![&"stale"];
        gather(&mut inbox, &[0, 1, 2], &posts);
        assert!(inbox.is_empty());
    }
}
