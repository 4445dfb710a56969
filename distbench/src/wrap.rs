//! Pure delegates that time the calls into each layer's public API for
//! the traced run: an [`Instance`] for the core layer and an
//! [`EndpointNet`]/[`Transport`] pair for the runtime layer. Each forwards
//! every call unchanged, so a traced simulation reaches bit-identical
//! classifications (checked on every traced operation).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use distclass_core::{Classification, Instance};
use distclass_net::NodeId;
use distclass_runtime::frame::{self, Frame, FrameError, FrameKind};
use distclass_runtime::{EndpointNet, Transport};

use crate::alloc;
use crate::trace::{self, Name};

/// Every this many over-full `partition` inputs, one is kept for the
/// replays that price EM iterations.
const SAMPLE_EVERY: u64 = 101;
/// Cap on kept `partition` inputs.
const MAX_SAMPLES: usize = 256;

/// An [`Instance`] that times `partition` and `merge_set` of `I`.
pub struct Timed<I: Instance> {
    inner: I,
    overfull: AtomicU64,
    samples: Mutex<Vec<Classification<I::Summary>>>,
}

impl<I: Instance> Timed<I> {
    /// Wraps `inner`.
    pub fn new(inner: I) -> Self {
        Timed {
            inner,
            overfull: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped instance.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The sampled over-full `partition` inputs (more than `k`
    /// collections, the inputs EM reduces).
    pub fn take_samples(&self) -> Vec<Classification<I::Summary>> {
        std::mem::take(&mut *self.samples.lock().expect("sample buffer poisoned"))
    }
}

impl<I: Instance> Instance for Timed<I> {
    type Value = I::Value;
    type Summary = I::Summary;

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn val_to_summary(&self, val: &Self::Value) -> Self::Summary {
        self.inner.val_to_summary(val)
    }

    fn merge_set(&self, parts: &[(&Self::Summary, f64)]) -> Self::Summary {
        trace::within(Name::MergeSet, || self.inner.merge_set(parts))
    }

    fn partition(&self, big: &Classification<Self::Summary>) -> Vec<Vec<usize>> {
        let mut span = trace::span(Name::Partition);
        span.tag(big.len() as u32);
        let groups = self.inner.partition(big);
        drop(span);
        if big.len() > self.inner.k()
            && self
                .overfull
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(SAMPLE_EVERY)
        {
            alloc::uncounted(|| {
                let mut samples = self.samples.lock().expect("sample buffer poisoned");
                if samples.len() < MAX_SAMPLES {
                    samples.push(big.clone());
                }
            });
        }
        groups
    }

    fn summary_distance(&self, a: &Self::Summary, b: &Self::Summary) -> f64 {
        self.inner.summary_distance(a, b)
    }

    fn value_from_components(&self, components: &[f64]) -> Option<Self::Value> {
        self.inner.value_from_components(components)
    }
}

/// Bytes handed to the transport, split by what they carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameSplit {
    /// Envelope bytes of frames that carry a payload slot (all but acks).
    pub header: u64,
    /// Payload bytes (encoded classifications).
    pub payload: u64,
    /// Whole ack frames (an ack is all envelope).
    pub ack: u64,
    /// Data frames, retransmissions included.
    pub data_frames: u64,
    /// Frames `frame::decode_frame` rejected.
    pub undecodable: u64,
}

impl FrameSplit {
    /// Accounts one sent frame of `len` bytes that decoded to `decoded`.
    pub fn add(&mut self, len: usize, decoded: &Result<Frame<'_>, FrameError>) {
        let len = len as u64;
        match decoded {
            Ok(f) if f.kind == FrameKind::Ack => self.ack += len,
            Ok(f) => {
                let payload = f.payload.len() as u64;
                self.payload += payload;
                self.header += len - payload;
                if f.kind == FrameKind::Data {
                    self.data_frames += 1;
                }
            }
            Err(_) => self.undecodable += 1,
        }
    }

    /// All bytes accounted.
    pub fn total(&self) -> u64 {
        self.header + self.payload + self.ack
    }
}

/// An [`EndpointNet`] whose endpoints time `send` and `recv_timeout`
/// and split every sent frame's bytes.
pub struct TimedNet<N> {
    inner: N,
    split: Arc<Mutex<FrameSplit>>,
}

impl<N> TimedNet<N> {
    /// Wraps `inner`; every endpoint adds its sent bytes to `split`.
    pub fn new(inner: N, split: Arc<Mutex<FrameSplit>>) -> Self {
        TimedNet { inner, split }
    }
}

impl<N: EndpointNet> EndpointNet for TimedNet<N> {
    type T = TimedTransport<N::T>;

    fn endpoint(&mut self, id: NodeId, incarnation: u16) -> io::Result<Self::T> {
        Ok(TimedTransport {
            inner: self.inner.endpoint(id, incarnation)?,
            split: Arc::clone(&self.split),
        })
    }
}

/// A [`Transport`] endpoint of a [`TimedNet`].
pub struct TimedTransport<T> {
    inner: T,
    split: Arc<Mutex<FrameSplit>>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        let decoded = trace::within(Name::FrameDecode, || frame::decode_frame(frame));
        alloc::uncounted(|| {
            self.split
                .lock()
                .expect("frame split poisoned")
                .add(frame.len(), &decoded)
        });
        trace::within(Name::Send, || self.inner.send(to, frame))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let mut span = trace::span(Name::Recv);
        let got = self.inner.recv_timeout(timeout);
        if matches!(got, Ok(None)) {
            span.tag(1);
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distclass_runtime::frame::{encode_frame, HEADER_LEN};

    fn add(split: &mut FrameSplit, frame: &[u8]) {
        split.add(frame.len(), &frame::decode_frame(frame));
    }

    #[test]
    fn split_separates_header_payload_and_acks() {
        let mut split = FrameSplit::default();
        let data = encode_frame(FrameKind::Data, 3, 0, 7, 11, &[9u8; 100]);
        let ack = encode_frame(FrameKind::Ack, 4, 0, 7, 12, &[]);
        let handoff = encode_frame(FrameKind::Handoff, 3, 1, 8, 13, &[1u8; 20]);
        add(&mut split, &data);
        add(&mut split, &data);
        add(&mut split, &ack);
        add(&mut split, &handoff);
        let h = HEADER_LEN as u64;
        assert_eq!(
            split,
            FrameSplit {
                header: 3 * h,
                payload: 220,
                ack: h,
                data_frames: 2,
                undecodable: 0,
            }
        );
        assert_eq!(
            split.total(),
            (2 * data.len() + ack.len() + handoff.len()) as u64
        );
    }

    #[test]
    fn split_counts_undecodable_frames_apart() {
        let mut split = FrameSplit::default();
        let mut bad = encode_frame(FrameKind::Data, 0, 0, 1, 1, &[0u8; 4]);
        bad[0] ^= 0xff;
        add(&mut split, &bad);
        add(&mut split, &bad[..5]);
        assert_eq!(split.undecodable, 2);
        assert_eq!(split.total(), 0);
    }
}
