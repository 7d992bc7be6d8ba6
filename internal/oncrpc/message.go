package oncrpc

import (
	"encoding/binary"
	"fmt"
	"time"

	"cricket/internal/xdr"
)

// RPCVersion is the only protocol version this package speaks (RFC 5531).
const RPCVersion = 2

// MsgType discriminates call and reply messages.
type MsgType uint32

// RPC message types.
const (
	Call  MsgType = 0
	Reply MsgType = 1
)

// AuthFlavor identifies an authentication mechanism.
type AuthFlavor uint32

// Authentication flavors defined by RFC 5531 that this package
// understands. Others are carried opaquely.
const (
	AuthNone AuthFlavor = 0
	// AuthTrace is a private-use flavor carrying an 8-byte big-endian
	// trace id in the credential body, joining client and server spans
	// of one call. RFC 5531 reserves the flavor number space beyond
	// the IANA-assigned mechanisms; servers that do not understand the
	// flavor treat the credential as they treat AUTH_NONE.
	AuthTrace AuthFlavor = 0x43525458 // "CRTX"
	// AuthRetry is a private-use flavor carried in a *reply verifier*:
	// an 8-byte big-endian retry-after hint in nanoseconds. An
	// overloaded server attaches it to load-shedding replies so a
	// backoff-capable client can requeue instead of hammering; clients
	// that do not understand the flavor ignore the verifier, as RFC
	// 5531 permits.
	AuthRetry AuthFlavor = 0x43525241 // "CRRA"
)

// maxAuthBody is the RFC 5531 bound on opaque auth bodies.
const maxAuthBody = 400

// ReplyStat discriminates accepted and denied replies.
type ReplyStat uint32

// Reply statuses.
const (
	MsgAccepted ReplyStat = 0
	MsgDenied   ReplyStat = 1
)

// AcceptStat reports the outcome of an accepted call.
type AcceptStat uint32

// Accept statuses (RFC 5531 §9).
const (
	Success      AcceptStat = 0 // RPC executed successfully
	ProgUnavail  AcceptStat = 1 // remote has not exported the program
	ProgMismatch AcceptStat = 2 // remote cannot support version
	ProcUnavail  AcceptStat = 3 // program cannot support procedure
	GarbageArgs  AcceptStat = 4 // procedure cannot decode params
	SystemErr    AcceptStat = 5 // memory allocation failure etc.
)

func (s AcceptStat) String() string {
	switch s {
	case Success:
		return "SUCCESS"
	case ProgUnavail:
		return "PROG_UNAVAIL"
	case ProgMismatch:
		return "PROG_MISMATCH"
	case ProcUnavail:
		return "PROC_UNAVAIL"
	case GarbageArgs:
		return "GARBAGE_ARGS"
	case SystemErr:
		return "SYSTEM_ERR"
	}
	return fmt.Sprintf("AcceptStat(%d)", uint32(s))
}

// RejectStat reports why a call was denied.
type RejectStat uint32

// Reject statuses.
const (
	RPCMismatch RejectStat = 0 // RPC version number != 2
	AuthError   RejectStat = 1 // authentication failed
)

// AuthStat explains an authentication failure.
type AuthStat uint32

// Authentication failure statuses (RFC 5531 §9).
const (
	AuthOK           AuthStat = 0
	AuthBadCred      AuthStat = 1
	AuthRejectedCred AuthStat = 2
	AuthBadVerf      AuthStat = 3
	AuthRejectedVerf AuthStat = 4
	AuthTooWeak      AuthStat = 5
	AuthInvalidResp  AuthStat = 6
	AuthFailed       AuthStat = 7
)

// OpaqueAuth is the RFC 5531 authentication descriptor: a flavor and
// up to 400 bytes of flavor-specific body.
type OpaqueAuth struct {
	Flavor AuthFlavor
	Body   []byte
}

// MarshalXDR encodes the auth descriptor.
func (a *OpaqueAuth) MarshalXDR(e *xdr.Encoder) error {
	if len(a.Body) > maxAuthBody {
		return fmt.Errorf("oncrpc: auth body %d bytes exceeds %d", len(a.Body), maxAuthBody)
	}
	e.PutUint32(uint32(a.Flavor))
	return e.PutOpaque(a.Body)
}

// UnmarshalXDR decodes the auth descriptor.
func (a *OpaqueAuth) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	a.Flavor = AuthFlavor(v)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > maxAuthBody {
		return fmt.Errorf("oncrpc: auth body %d bytes exceeds %d", n, maxAuthBody)
	}
	a.Body = make([]byte, n)
	return d.FixedOpaque(a.Body)
}

// TraceID extracts the trace id from an AUTH_TRACE credential. It
// returns zero ("untraced") for any other flavor or a malformed body.
func TraceID(a OpaqueAuth) uint64 {
	if a.Flavor != AuthTrace || len(a.Body) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(a.Body)
}

// NewRetryAuth builds an AUTH_RETRY reply verifier carrying a
// retry-after hint. Non-positive hints are clamped to zero.
func NewRetryAuth(d time.Duration) OpaqueAuth {
	if d < 0 {
		d = 0
	}
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, uint64(d))
	return OpaqueAuth{Flavor: AuthRetry, Body: body}
}

// RetryAfterHint extracts the retry-after hint from an AUTH_RETRY
// verifier. It returns (0, false) for any other flavor or a malformed
// body, so callers can distinguish "no hint" from a zero hint.
func RetryAfterHint(a OpaqueAuth) (time.Duration, bool) {
	if a.Flavor != AuthRetry || len(a.Body) != 8 {
		return 0, false
	}
	return time.Duration(binary.BigEndian.Uint64(a.Body)), true
}

// CallHeader is the body of an RPC call message up to (and excluding)
// the procedure parameters.
type CallHeader struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred OpaqueAuth
	Verf OpaqueAuth
}

// MarshalXDR encodes the call header including the msg_type and
// rpcvers discriminants.
func (h *CallHeader) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(h.XID)
	e.PutUint32(uint32(Call))
	e.PutUint32(RPCVersion)
	e.PutUint32(h.Prog)
	e.PutUint32(h.Vers)
	e.PutUint32(h.Proc)
	if err := h.Cred.MarshalXDR(e); err != nil {
		return err
	}
	return h.Verf.MarshalXDR(e)
}

// UnmarshalXDR decodes a call header. The caller must have consumed
// nothing: the xid and msg_type are decoded here and msg_type must be
// Call.
func (h *CallHeader) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if h.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if MsgType(mt) != Call {
		return fmt.Errorf("oncrpc: message type %d is not CALL", mt)
	}
	rv, err := d.Uint32()
	if err != nil {
		return err
	}
	if rv != RPCVersion {
		return &VersionError{Got: rv}
	}
	if h.Prog, err = d.Uint32(); err != nil {
		return err
	}
	if h.Vers, err = d.Uint32(); err != nil {
		return err
	}
	if h.Proc, err = d.Uint32(); err != nil {
		return err
	}
	if err = h.Cred.UnmarshalXDR(d); err != nil {
		return err
	}
	return h.Verf.UnmarshalXDR(d)
}

// VersionError reports a call whose rpcvers is not 2.
type VersionError struct{ Got uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("oncrpc: rpc version %d, want %d", e.Got, RPCVersion)
}

// MismatchInfo carries the supported version range in PROG_MISMATCH
// and RPC_MISMATCH replies.
type MismatchInfo struct {
	Low, High uint32
}

// ReplyHeader is the body of an RPC reply message up to (and
// excluding) the procedure results, which follow only when the reply
// is accepted with stat Success.
type ReplyHeader struct {
	XID      uint32
	Stat     ReplyStat
	Verf     OpaqueAuth   // accepted replies
	AccStat  AcceptStat   // accepted replies
	Mismatch MismatchInfo // AccStat == ProgMismatch or RejStat == RPCMismatch
	RejStat  RejectStat   // denied replies
	AuthStat AuthStat     // denied replies with RejStat == AuthError
}

// MarshalXDR encodes the reply header including msg_type.
func (h *ReplyHeader) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(h.XID)
	e.PutUint32(uint32(Reply))
	e.PutUint32(uint32(h.Stat))
	switch h.Stat {
	case MsgAccepted:
		if err := h.Verf.MarshalXDR(e); err != nil {
			return err
		}
		e.PutUint32(uint32(h.AccStat))
		if h.AccStat == ProgMismatch {
			e.PutUint32(h.Mismatch.Low)
			e.PutUint32(h.Mismatch.High)
		}
	case MsgDenied:
		e.PutUint32(uint32(h.RejStat))
		switch h.RejStat {
		case RPCMismatch:
			e.PutUint32(h.Mismatch.Low)
			e.PutUint32(h.Mismatch.High)
		case AuthError:
			e.PutUint32(uint32(h.AuthStat))
		default:
			return fmt.Errorf("oncrpc: bad reject stat %d", h.RejStat)
		}
	default:
		return fmt.Errorf("oncrpc: bad reply stat %d", h.Stat)
	}
	return e.Err()
}

// UnmarshalXDR decodes a reply header.
func (h *ReplyHeader) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if h.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if MsgType(mt) != Reply {
		return fmt.Errorf("oncrpc: message type %d is not REPLY", mt)
	}
	st, err := d.Uint32()
	if err != nil {
		return err
	}
	h.Stat = ReplyStat(st)
	switch h.Stat {
	case MsgAccepted:
		if err := h.Verf.UnmarshalXDR(d); err != nil {
			return err
		}
		as, err := d.Uint32()
		if err != nil {
			return err
		}
		h.AccStat = AcceptStat(as)
		if h.AccStat == ProgMismatch {
			if h.Mismatch.Low, err = d.Uint32(); err != nil {
				return err
			}
			if h.Mismatch.High, err = d.Uint32(); err != nil {
				return err
			}
		}
	case MsgDenied:
		rs, err := d.Uint32()
		if err != nil {
			return err
		}
		h.RejStat = RejectStat(rs)
		switch h.RejStat {
		case RPCMismatch:
			if h.Mismatch.Low, err = d.Uint32(); err != nil {
				return err
			}
			if h.Mismatch.High, err = d.Uint32(); err != nil {
				return err
			}
		case AuthError:
			as, err := d.Uint32()
			if err != nil {
				return err
			}
			h.AuthStat = AuthStat(as)
		default:
			return fmt.Errorf("oncrpc: bad reject stat %d", rs)
		}
	default:
		return fmt.Errorf("oncrpc: bad reply stat %d", st)
	}
	return nil
}

// Err converts a non-success reply header into an error, or returns
// nil for an accepted Success reply.
func (h *ReplyHeader) Err() error {
	switch h.Stat {
	case MsgAccepted:
		if h.AccStat == Success {
			return nil
		}
		return &AcceptError{Stat: h.AccStat, Mismatch: h.Mismatch}
	case MsgDenied:
		return &DeniedError{Stat: h.RejStat, AuthStat: h.AuthStat, Mismatch: h.Mismatch}
	}
	return fmt.Errorf("oncrpc: bad reply stat %d", h.Stat)
}

// AcceptError is a reply accepted with a non-Success status.
type AcceptError struct {
	Stat     AcceptStat
	Mismatch MismatchInfo
}

func (e *AcceptError) Error() string {
	if e.Stat == ProgMismatch {
		return fmt.Sprintf("oncrpc: %v (supported versions %d-%d)", e.Stat, e.Mismatch.Low, e.Mismatch.High)
	}
	return "oncrpc: " + e.Stat.String()
}

// DeniedError is a denied reply.
type DeniedError struct {
	Stat     RejectStat
	AuthStat AuthStat
	Mismatch MismatchInfo
}

func (e *DeniedError) Error() string {
	if e.Stat == RPCMismatch {
		return fmt.Sprintf("oncrpc: RPC_MISMATCH (supported %d-%d)", e.Mismatch.Low, e.Mismatch.High)
	}
	return fmt.Sprintf("oncrpc: AUTH_ERROR (stat %d)", e.AuthStat)
}
