package oncrpc

import (
	"bytes"
	"errors"
	"testing"

	"cricket/internal/xdr"
)

// unmarshalAll decodes v from data, which must hold nothing else.
func unmarshalAll(t *testing.T, data []byte, v xdr.Unmarshaler) {
	t.Helper()
	d := xdr.NewBytesDecoder(data)
	if err := v.UnmarshalXDR(d); err != nil || d.Len() != int64(len(data)) {
		t.Fatalf("decoding %T: %v, %d of %d bytes consumed", v, err, d.Len(), len(data))
	}
}

// marshal encodes v into a fresh byte slice.
func marshal(v xdr.Marshaler) ([]byte, error) {
	var buf bytes.Buffer
	err := v.MarshalXDR(xdr.NewEncoder(&buf))
	return buf.Bytes(), err
}

func TestCallHeaderRoundTrip(t *testing.T) {
	// A 7-byte body, so the opaque-auth encoding pads.
	cred := OpaqueAuth{Flavor: AuthTrace, Body: []byte("trace-7")}
	in := CallHeader{XID: 0xdeadbeef, Prog: 99449, Vers: 1, Proc: 42, Cred: cred}
	data, err := marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6*4 + (4 + 4 + 8) + (4 + 4); len(data) != want {
		t.Fatalf("call header is %d bytes, want %d", len(data), want)
	}
	var out CallHeader
	unmarshalAll(t, data, &out)
	if out.XID != in.XID || out.Prog != in.Prog || out.Vers != in.Vers || out.Proc != in.Proc {
		t.Fatalf("got %+v", out)
	}
	if out.Cred.Flavor != AuthTrace || !bytes.Equal(out.Cred.Body, cred.Body) {
		t.Fatalf("cred %+v, want %+v", out.Cred, cred)
	}
	if out.Verf.Flavor != AuthNone || len(out.Verf.Body) != 0 {
		t.Fatalf("verf %+v, want AUTH_NONE", out.Verf)
	}
}

func TestCallHeaderRejectsReplyType(t *testing.T) {
	hdr := ReplyHeader{XID: 5, Stat: MsgAccepted, AccStat: Success}
	data, err := marshal(&hdr)
	if err != nil {
		t.Fatal(err)
	}
	var call CallHeader
	if err := (&call).UnmarshalXDR(xdr.NewBytesDecoder(data)); err == nil {
		t.Fatal("decoding a reply as a call must fail")
	}
}

func TestCallHeaderRejectsBadRPCVersion(t *testing.T) {
	in := CallHeader{XID: 1, Prog: 2, Vers: 3, Proc: 4}
	data, err := marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	// rpcvers is the third word; corrupt it.
	data[11] = 9
	var out CallHeader
	err = (&out).UnmarshalXDR(xdr.NewBytesDecoder(data))
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 9 {
		t.Fatalf("err = %v, want VersionError{9}", err)
	}
}

func TestReplyHeaderRoundTripVariants(t *testing.T) {
	cases := []ReplyHeader{
		{XID: 1, Stat: MsgAccepted, AccStat: Success},
		{XID: 2, Stat: MsgAccepted, AccStat: ProgUnavail},
		{XID: 3, Stat: MsgAccepted, AccStat: ProgMismatch, Mismatch: MismatchInfo{Low: 1, High: 3}},
		{XID: 4, Stat: MsgAccepted, AccStat: ProcUnavail},
		{XID: 5, Stat: MsgAccepted, AccStat: GarbageArgs},
		{XID: 6, Stat: MsgAccepted, AccStat: SystemErr},
		{XID: 7, Stat: MsgDenied, RejStat: RPCMismatch, Mismatch: MismatchInfo{Low: 2, High: 2}},
		{XID: 8, Stat: MsgDenied, RejStat: AuthError, AuthStat: AuthBadCred},
	}
	for _, in := range cases {
		data, err := marshal(&in)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		var out ReplyHeader
		unmarshalAll(t, data, &out)
		if out.XID != in.XID || out.Stat != in.Stat || out.AccStat != in.AccStat ||
			out.RejStat != in.RejStat || out.AuthStat != in.AuthStat || out.Mismatch != in.Mismatch {
			t.Fatalf("got %+v, want %+v", out, in)
		}
	}
}

func TestReplyHeaderErr(t *testing.T) {
	ok := ReplyHeader{Stat: MsgAccepted, AccStat: Success}
	if err := ok.Err(); err != nil {
		t.Fatalf("success reply: %v", err)
	}
	pm := ReplyHeader{Stat: MsgAccepted, AccStat: ProgMismatch, Mismatch: MismatchInfo{Low: 1, High: 2}}
	var ae *AcceptError
	if err := pm.Err(); !errors.As(err, &ae) || ae.Stat != ProgMismatch {
		t.Fatalf("err = %v", pm.Err())
	}
	dn := ReplyHeader{Stat: MsgDenied, RejStat: AuthError, AuthStat: AuthTooWeak}
	var de *DeniedError
	if err := dn.Err(); !errors.As(err, &de) || de.AuthStat != AuthTooWeak {
		t.Fatalf("err = %v", dn.Err())
	}
}

func TestAuthBodyLimit(t *testing.T) {
	a := OpaqueAuth{Flavor: AuthNone, Body: make([]byte, maxAuthBody+1)}
	if _, err := marshal(&a); err == nil {
		t.Fatal("oversized auth body must fail to encode")
	}
	// Craft an oversized wire body and verify decode rejects it.
	big := OpaqueAuth{Flavor: AuthNone, Body: make([]byte, maxAuthBody)}
	data, err := marshal(&big)
	if err != nil {
		t.Fatal(err)
	}
	data[6] = 0x01
	data[7] = 0x94 // length field 404, past the 400-byte limit
	var out OpaqueAuth
	if err := (&out).UnmarshalXDR(xdr.NewBytesDecoder(data)); err == nil {
		t.Fatal("oversized auth body must fail to decode")
	}
}

func TestAcceptStatString(t *testing.T) {
	if Success.String() != "SUCCESS" || ProgUnavail.String() != "PROG_UNAVAIL" {
		t.Fatal("unexpected AcceptStat strings")
	}
	if got := AcceptStat(99).String(); got != "AcceptStat(99)" {
		t.Fatalf("got %q", got)
	}
}
