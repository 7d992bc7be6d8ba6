// Package rpcltest exercises rpcgen-generated code end-to-end: the
// gen_mini.go stubs (generated from mini.x — see the README note in
// the repository root) serve and call a live RPC service covering
// every RPCL construct: enums, typedefs, optionals, fixed and bounded
// arrays, multi-case unions, bool discriminants, and all return
// classes.
package rpcltest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"cricket/internal/oncrpc"
	"cricket/internal/rpcl"
	"cricket/internal/xdr"
)

// miniService implements MiniVersHandler.
type miniService struct{}

func (miniService) Ping() error { return nil }

func (miniService) Add(a, b int32) (int32, error) { return a + b, nil }

func (miniService) SumTags(tags TagList) (int64, error) {
	var sum int64
	for _, t := range tags {
		sum += int64(t)
	}
	return sum, nil
}

func (miniService) Greet(name string) (string, error) {
	if name == "" {
		return "", errors.New("empty name")
	}
	return "hello, " + name, nil
}

func (miniService) MakeRecord(name string, id int64) (Record, error) {
	return Record{
		Name:  name,
		Id:    id,
		Stamp: uint64(id) * 2,
		Tint:  Green,
		Pts: []Point{
			{X: 1, Y: 2, Weight: 0.5, Pinned: true},
			{X: 3, Y: 4, Weight: 1.5},
		},
		Tags: TagList{7, 8, 9},
		Blob: Payload("blob-" + name),
		Next: &Record{
			Name: name + "-child",
			Pts:  []Point{{}, {}},
		},
	}, nil
}

func (miniService) Lookup(id int64) (LookupResult, error) {
	switch {
	case id > 0:
		rec, _ := miniService{}.MakeRecord(fmt.Sprintf("rec%d", id), id)
		return LookupResult{Status: 0, Rec: rec}, nil
	case id == 0:
		return LookupResult{Status: 1, Message: "not found"}, nil
	case id == -1:
		return LookupResult{Status: 2, Message: "tombstone"}, nil
	default:
		return LookupResult{Status: 99}, nil // default (void) arm
	}
}

func (miniService) Check(ok bool) (FlagResult, error) {
	if ok {
		return FlagResult{Ok: true, Value: 42}, nil
	}
	return FlagResult{Ok: false}, nil
}

func (miniService) Reverse(p Payload) (Payload, error) {
	out := make(Payload, len(p))
	for i, b := range p {
		out[len(p)-1-i] = b
	}
	return out, nil
}

func (miniService) NextColor(c Color) (Color, error) {
	return Color((int32(c) + 1) % 3), nil
}

func (miniService) Norm(p Point) (float64, error) {
	return math.Hypot(p.X, p.Y) * float64(p.Weight), nil
}

func newClient(t testing.TB) *MiniVersClient {
	t.Helper()
	srv := oncrpc.NewServer()
	RegisterMiniVers(srv, miniService{})
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	rpc := oncrpc.NewClient(cliConn, MiniProg, MiniVers)
	t.Cleanup(func() {
		rpc.Close()
		srvConn.Close()
	})
	return NewMiniVersClient(rpc)
}

func TestGeneratedConstants(t *testing.T) {
	if MiniProg != 0x20000bbb || MiniVers != 3 {
		t.Fatalf("prog=%#x vers=%d", MiniProg, MiniVers)
	}
	if MaxTags != 8 || NameLen != 32 {
		t.Fatal("const values wrong")
	}
	if Red != 0 || Green != 1 || Blue != 2 {
		t.Fatal("enum values wrong")
	}
	if ProcPing != 0 || ProcNorm != 9 {
		t.Fatal("procedure numbers wrong")
	}
	if len(MiniVersProcNames) != ProcNorm+1 || MiniVersProcNames[ProcPing] != "PING" || MiniVersProcNames[ProcMakeRecord] != "MAKE_RECORD" {
		t.Fatalf("procedure name table wrong: %q", MiniVersProcNames)
	}
}

func TestVoidAndScalars(t *testing.T) {
	c := newClient(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Add(-7, 50)
	if err != nil || sum != 43 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
	n, err := c.Norm(Point{X: 3, Y: 4, Weight: 2})
	if err != nil || n != 10 {
		t.Fatalf("norm=%g err=%v", n, err)
	}
	col, err := c.NextColor(Blue)
	if err != nil || col != Red {
		t.Fatalf("color=%v err=%v", col, err)
	}
}

func TestStringsAndErrors(t *testing.T) {
	c := newClient(t)
	greet, err := c.Greet("cricket")
	if err != nil || greet != "hello, cricket" {
		t.Fatalf("greet=%q err=%v", greet, err)
	}
	// Handler error surfaces as a SYSTEM_ERR accept status.
	_, err = c.Greet("")
	var ae *oncrpc.AcceptError
	if !errors.As(err, &ae) || ae.Stat != oncrpc.SystemErr {
		t.Fatalf("err = %v", err)
	}
	// The connection survives the failure.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestTypedefs(t *testing.T) {
	c := newClient(t)
	sum, err := c.SumTags(TagList{1, 2, 3, 4})
	if err != nil || sum != 10 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
	// Bounded typedef: more than MAX_TAGS elements must fail to encode.
	if _, err := c.SumTags(make(TagList, MaxTags+1)); err == nil {
		t.Fatal("oversized tag list accepted")
	}
	rev, err := c.Reverse(Payload("abcdef"))
	if err != nil || string(rev) != "fedcba" {
		t.Fatalf("rev=%q err=%v", rev, err)
	}
	// Empty payload round-trips.
	rev, err = c.Reverse(Payload{})
	if err != nil || len(rev) != 0 {
		t.Fatalf("empty rev=%v err=%v", rev, err)
	}
}

func TestNestedStructWithOptional(t *testing.T) {
	c := newClient(t)
	rec, err := c.MakeRecord("alpha", 21)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "alpha" || rec.Id != 21 || rec.Stamp != 42 || rec.Tint != Green {
		t.Fatalf("rec = %+v", rec)
	}
	if len(rec.Pts) != 2 || rec.Pts[0].X != 1 || !rec.Pts[0].Pinned || rec.Pts[1].Weight != 1.5 {
		t.Fatalf("pts = %+v", rec.Pts)
	}
	if len(rec.Tags) != 3 || rec.Tags[2] != 9 {
		t.Fatalf("tags = %+v", rec.Tags)
	}
	if string(rec.Blob) != "blob-alpha" {
		t.Fatalf("blob = %q", rec.Blob)
	}
	// Optional linked node present, terminated by nil.
	if rec.Next == nil || rec.Next.Name != "alpha-child" || rec.Next.Next != nil {
		t.Fatalf("next = %+v", rec.Next)
	}
}

func TestUnionArms(t *testing.T) {
	c := newClient(t)
	// Case 0: record arm.
	res, err := c.Lookup(5)
	if err != nil || res.Status != 0 || res.Rec.Name != "rec5" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// Cases 1 and 2 share the message arm.
	res, err = c.Lookup(0)
	if err != nil || res.Status != 1 || res.Message != "not found" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	res, err = c.Lookup(-1)
	if err != nil || res.Status != 2 || res.Message != "tombstone" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// Default void arm.
	res, err = c.Lookup(-5)
	if err != nil || res.Status != 99 || res.Message != "" || res.Rec.Name != "" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestBoolUnion(t *testing.T) {
	c := newClient(t)
	res, err := c.Check(true)
	if err != nil || !res.Ok || res.Value != 42 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	res, err = c.Check(false)
	if err != nil || res.Ok || res.Value != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFixedArrayLengthEnforced(t *testing.T) {
	c := newClient(t)
	// Record.Pts is point[2]: any other length must fail to encode.
	bad := Record{Name: "x", Pts: []Point{{}}}
	rpc := c.RPC
	err := rpc.Call(ProcNorm, &bad, nil) // reuse transport: encode failure happens client-side
	if err == nil || !strings.Contains(err.Error(), "pts") {
		t.Fatalf("err = %v", err)
	}
}

// A record holding nothing but an array count is a short read, found
// before make sees the count: generated array decoders hold a count to
// the bytes the record has left (xdr.Decoder.ArrayLen).
func TestForgedArrayCountIsShortRead(t *testing.T) {
	wire := []byte{0x00, 0xff, 0xff, 0xff} // 1<<24 - 1 tags, none present
	var tags TagList
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := tags.UnmarshalXDR(xdr.NewBytesDecoder(wire))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a short read", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Fatalf("%d bytes allocated to refuse a 4-byte forged count", n)
	}
}

// Property: Add is the integer sum for arbitrary inputs through the
// full stack, and Reverse is an involution.
func TestQuickGeneratedRoundTrips(t *testing.T) {
	c := newClient(t)
	add := func(a, b int32) bool {
		got, err := c.Add(a, b)
		return err == nil && got == a+b
	}
	if err := quick.Check(add, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	rev := func(p []byte) bool {
		once, err := c.Reverse(Payload(p))
		if err != nil {
			return false
		}
		twice, err := c.Reverse(once)
		return err == nil && string(twice) == string(p)
	}
	if err := quick.Check(rev, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: records with arbitrary contents survive the wire intact.
func TestQuickRecordEcho(t *testing.T) {
	c := newClient(t)
	f := func(name string, id int64) bool {
		// XDR strings are opaque bytes and the bounded declaration
		// counts bytes; leave room for the "-child" suffix the
		// service appends to the nested record's name.
		if max := NameLen - len("-child"); len(name) > max {
			name = name[:max]
		}
		rec, err := c.MakeRecord(name, id)
		if err != nil {
			return false
		}
		return rec.Name == name && rec.Id == id && rec.Stamp == uint64(id)*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedCodeIsFresh guards gen_mini.go against drift from
// mini.x.
func TestGeneratedCodeIsFresh(t *testing.T) {
	src, err := os.ReadFile("mini.x")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rpcl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := rpcl.Generate(spec, rpcl.GenOptions{Package: "rpcltest"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("gen_mini.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("gen_mini.go is stale: regenerate with cmd/rpcgen")
	}
}
