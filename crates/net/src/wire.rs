//! The coordinator/worker wire protocol.
//!
//! Every exchange between the coordinator and a worker process is one
//! [`NetMsg`], marshalled with the sender's [`DataLayout`] into a
//! `jade-transport` [`Message`] and framed by
//! [`jade_transport::frame`]. The receiver converts through
//! [`Message::try_unpack`], so a big-endian "SPARC" worker and a
//! little-endian coordinator interoperate exactly as the paper's
//! heterogeneous machines did over PVM.
//!
//! There is one delivery class. A link is a stream socket, which
//! delivers every byte once and in order or fails as a whole, so a
//! message is written once by [`send_msg`] and a frame that is read is
//! delivered once; nothing is acknowledged or retransmitted (the
//! paper's runtime did not acknowledge its PVM messages either). A
//! failed link, or a frame that does not decode, ends in the
//! coordinator declaring the worker dead and re-shipping its work.
//!
//! Tag 4 belonged to the retired acknowledgement, and tags 5–9 to the
//! retired lease and remote-kernel-call messages. They are not reused,
//! and a frame carrying one decodes to [`DecodeError::UnknownTag`] like
//! any other unknown tag.

use std::io::Write;
use std::time::Duration;

use jade_core::ir::TaskBodyIr;
use jade_transport::encode::{PortDecoder, PortEncoder};
use jade_transport::error::{DecodeError, DecodeResult};
use jade_transport::{encode_frame, DataLayout, LayoutId, Message, MsgKind, Portable};

use crate::worker::Chaos;

/// Most declarations one shipped task may have. Declaration indices in
/// a [`NetMsg::TaskShip`] size the worker's slot table, so the worker
/// refuses a task naming an index at or past this bound and the
/// coordinator never ships one.
pub const MAX_TASK_DECLS: usize = 4096;

/// How long either end of a link waits for the other's half of the
/// `Hello`/`Welcome` handshake.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum NetMsg {
    /// Worker → coordinator, first frame after connecting: asks to
    /// join the pool.
    Hello,
    /// Coordinator → worker, the answer to `Hello`: the worker's whole
    /// configuration, worked out by the coordinator. The protocol may
    /// begin.
    Welcome {
        /// The worker's slot in the pool (slots go in the order
        /// workers say `Hello`).
        worker: u32,
        /// The data layout the worker marshals with.
        layout: LayoutId,
        /// Fault-injection thresholds (all unset outside tests).
        chaos: Chaos,
    },
    /// Coordinator → worker heartbeat, once per round.
    Ping {
        /// Round-trip correlation value.
        nonce: u64,
    },
    /// Worker → coordinator heartbeat response.
    Pong {
        /// Echo of the ping's nonce.
        nonce: u64,
    },
    /// Coordinator → worker: exit cleanly (best-effort; workers also
    /// exit on socket EOF).
    Shutdown,
    /// Coordinator → worker: install one object payload in the
    /// worker's replica cache. Sent before a [`NetMsg::TaskShip`]
    /// whose inputs the worker does not hold at the right version.
    ObjectShip {
        /// Raw `ObjectId` bits.
        object: u64,
        /// The payload's version in the coordinator's directory.
        version: u64,
        /// The lowered object value.
        data: Vec<f64>,
    },
    /// Coordinator → worker: execute a portable task body
    /// ([`TaskBodyIr`]) against the replica cache. The worker waits
    /// for any input replica that has not arrived yet, runs the
    /// program, and answers with [`NetMsg::TaskResult`]. An input can
    /// trail its task: when two coordinator threads ship to one
    /// worker, the second sees the first's recorded ship as a replica
    /// hit, and its `TaskShip` may reach the socket before the first
    /// thread's `ObjectShip`.
    TaskShip {
        /// Raw `TaskId` bits (doubles as the result correlation id).
        nonce: u64,
        /// The program of kernel calls.
        ir: TaskBodyIr,
        /// `(decl index, object, version)` for every declaration the
        /// program reads: the replica the worker must hold.
        inputs: Vec<(u32, u64, u64)>,
        /// `(decl index, object, new version)` for every declaration
        /// the program writes: the version the worker's own replica
        /// adopts on completion.
        outs: Vec<(u32, u64, u64)>,
    },
    /// Worker → coordinator: the shipped task's written values (or a
    /// deterministic failure).
    TaskResult {
        /// Echo of the ship's nonce.
        nonce: u64,
        /// Whether the program ran to completion.
        ok: bool,
        /// Failure description when `!ok`.
        err: String,
        /// `(decl index, final value)` per written declaration.
        outs: Vec<(u32, Vec<f64>)>,
    },
}

impl NetMsg {
    /// The transport-level kind this message maps onto.
    pub fn msg_kind(&self) -> MsgKind {
        match self {
            NetMsg::ObjectShip { .. } | NetMsg::TaskShip { .. } => MsgKind::TaskShip,
            NetMsg::TaskResult { .. } => MsgKind::TaskDone,
            _ => MsgKind::Control,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            NetMsg::Hello => 0,
            NetMsg::Welcome { .. } => 1,
            NetMsg::Ping { .. } => 2,
            NetMsg::Pong { .. } => 3,
            NetMsg::Shutdown => 10,
            NetMsg::ObjectShip { .. } => 11,
            NetMsg::TaskShip { .. } => 12,
            NetMsg::TaskResult { .. } => 13,
        }
    }
}

impl Portable for NetMsg {
    fn encode(&self, enc: &mut PortEncoder) {
        enc.put_u8(self.tag());
        match self {
            NetMsg::Hello => {}
            NetMsg::Welcome { worker, layout, chaos } => {
                enc.put_u32(*worker);
                enc.put_u8(layout.0);
                chaos.encode(enc);
            }
            NetMsg::Ping { nonce } | NetMsg::Pong { nonce } => enc.put_u64(*nonce),
            NetMsg::Shutdown => {}
            NetMsg::ObjectShip { object, version, data } => {
                enc.put_u64(*object);
                enc.put_u64(*version);
                enc.put_f64_slice(data);
            }
            NetMsg::TaskShip { nonce, ir, inputs, outs } => {
                enc.put_u64(*nonce);
                ir.encode(enc);
                inputs.encode(enc);
                outs.encode(enc);
            }
            NetMsg::TaskResult { nonce, ok, err, outs } => {
                enc.put_u64(*nonce);
                enc.put_bool(*ok);
                err.encode(enc);
                outs.encode(enc);
            }
        }
    }

    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(match dec.get_u8()? {
            0 => NetMsg::Hello,
            1 => NetMsg::Welcome {
                worker: dec.get_u32()?,
                layout: LayoutId(dec.get_u8()?),
                chaos: Chaos::decode(dec)?,
            },
            2 => NetMsg::Ping { nonce: dec.get_u64()? },
            3 => NetMsg::Pong { nonce: dec.get_u64()? },
            10 => NetMsg::Shutdown,
            11 => NetMsg::ObjectShip {
                object: dec.get_u64()?,
                version: dec.get_u64()?,
                data: dec.get_f64_slice()?,
            },
            12 => NetMsg::TaskShip {
                nonce: dec.get_u64()?,
                ir: TaskBodyIr::decode(dec)?,
                inputs: Vec::decode(dec)?,
                outs: Vec::decode(dec)?,
            },
            13 => NetMsg::TaskResult {
                nonce: dec.get_u64()?,
                ok: dec.get_bool()?,
                err: String::decode(dec)?,
                outs: Vec::decode(dec)?,
            },
            tag => return Err(DecodeError::UnknownTag { tag }),
        })
    }

    fn size_hint(&self) -> usize {
        match self {
            NetMsg::ObjectShip { data, .. } => 32 + 8 * data.len(),
            NetMsg::TaskShip { ir, inputs, outs, .. } => {
                16 + ir.size_hint() + 32 * (inputs.len() + outs.len())
            }
            NetMsg::TaskResult { err, outs, .. } => {
                32 + err.len() + outs.iter().map(|(_, v)| 16 + 8 * v.len()).sum::<usize>()
            }
            _ => 16,
        }
    }
}

impl Portable for Chaos {
    fn encode(&self, enc: &mut PortEncoder) {
        self.kill_after_grants.encode(enc);
        self.hang_after_grants.encode(enc);
        self.kill_after_tasks.encode(enc);
    }

    fn decode(dec: &mut PortDecoder<'_>) -> DecodeResult<Self> {
        Ok(Chaos {
            kill_after_grants: Option::decode(dec)?,
            hang_after_grants: Option::decode(dec)?,
            kill_after_tasks: Option::decode(dec)?,
        })
    }
}

/// Marshal a [`NetMsg`] into a transport [`Message`] in `layout`. The
/// header's sequence number is always 0: a stream needs none.
pub fn pack_msg(msg: &NetMsg, src: u32, dst: u32, layout: DataLayout) -> Message {
    Message::pack(msg.msg_kind(), src, dst, 0, layout, msg)
}

/// Encode, frame and write one [`NetMsg`] on `w`: the only way a
/// message reaches a socket.
pub fn send_msg(
    w: &mut impl Write,
    msg: &NetMsg,
    src: u32,
    dst: u32,
    layout: DataLayout,
) -> std::io::Result<()> {
    w.write_all(&encode_frame(&pack_msg(msg, src, dst, layout)))?;
    w.flush()
}

/// Unmarshal a received transport [`Message`] back into a [`NetMsg`],
/// converting from the sender's layout (named in the header).
pub fn unpack_msg(msg: &Message) -> DecodeResult<NetMsg> {
    msg.try_unpack::<NetMsg>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::ir::{IrDst, IrSrc};

    fn all_msgs() -> Vec<NetMsg> {
        vec![
            NetMsg::Hello,
            NetMsg::Welcome {
                worker: 3,
                layout: DataLayout::mips_be().id,
                chaos: Chaos {
                    kill_after_grants: None,
                    hang_after_grants: Some(2),
                    kill_after_tasks: Some(0),
                },
            },
            NetMsg::Ping { nonce: 42 },
            NetMsg::Pong { nonce: 42 },
            NetMsg::Shutdown,
            NetMsg::ObjectShip { object: 9, version: 3, data: vec![1.5, -2.0, 0.0] },
            NetMsg::TaskShip {
                nonce: 0xBEEF,
                ir: TaskBodyIr::new().step(
                    "scale2",
                    vec![IrSrc::Obj(0), IrSrc::Lit(vec![4.5])],
                    IrDst::Obj(0),
                ),
                inputs: vec![(0, 9, 3)],
                outs: vec![(0, 9, 4)],
            },
            NetMsg::TaskResult {
                nonce: 0xBEEF,
                ok: true,
                err: String::new(),
                outs: vec![(0, vec![3.0, -4.0, 9.0])],
            },
            NetMsg::TaskResult {
                nonce: 7,
                ok: false,
                err: "step 0: no kernel named 'x'".into(),
                outs: vec![],
            },
        ]
    }

    #[test]
    fn every_message_roundtrips_across_every_layout() {
        for m in all_msgs() {
            for layout in DataLayout::all_presets() {
                let wire = pack_msg(&m, 0, 1, layout);
                assert_eq!(wire.header.seq, 0);
                let back = unpack_msg(&wire).expect("intact message");
                assert_eq!(back, m, "layout {}", layout.name);
            }
        }
    }

    #[test]
    fn retired_tags_decode_to_a_typed_error() {
        // A peer built before the ack, lease and remote-kernel messages
        // were retired may still send them; the `u64` after the tag
        // is the body the old ack and lease request carried.
        for tag in 4u8..=9 {
            for layout in DataLayout::all_presets() {
                let wire =
                    Message::pack(MsgKind::TaskShip, 0, 1, 1, layout, &(tag, 0xDEAD_BEEFu64));
                assert_eq!(
                    unpack_msg(&wire),
                    Err(DecodeError::UnknownTag { tag }),
                    "tag {tag}, layout {}",
                    layout.name
                );
            }
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        use jade_transport::Message;
        let m = NetMsg::ObjectShip { object: 1, version: 1, data: vec![1.0; 8] };
        let wire = pack_msg(&m, 0, 1, DataLayout::sparc());
        let cut = Message {
            header: wire.header,
            payload: jade_transport::Bytes::copy_from_slice(
                &wire.payload[..wire.payload.len() - 5],
            ),
        };
        assert!(unpack_msg(&cut).is_err());
    }
}
