package rpcl

import (
	"errors"
	goparser "go/parser"
	"go/token"
	"strings"
	"testing"
	"testing/quick"
)

const miniSpec = `
/* A miniature Cricket-like protocol. */
const MAX_NAME = 64;
const RPC_BUF = 0x100000;

enum cuda_error {
    CUDA_SUCCESS = 0,
    CUDA_ERROR_MEMORY_ALLOCATION = 2,
    CUDA_ERROR_INVALID_VALUE = 11
};

struct dev_info {
    string name<MAX_NAME>;
    unsigned hyper total_mem;
    int cc_major;
    int cc_minor;
    bool integrated;
};

typedef opaque mem_data<>;

union ptr_result switch (int err) {
case 0:
    unsigned hyper ptr;
default:
    void;
};

struct launch_args {
    unsigned hyper func;
    unsigned int grid_x;
    unsigned int grid_y;
    unsigned int grid_z;
    unsigned int block_x;
    unsigned int block_y;
    unsigned int block_z;
    unsigned int shared_mem;
    mem_data params;
};

program RPC_CD_PROG {
    version RPC_CD_VERS {
        void NOOP(void) = 0;
        int CUDA_GET_DEVICE_COUNT(void) = 1;
        ptr_result CUDA_MALLOC(unsigned hyper) = 2;
        int CUDA_FREE(unsigned hyper) = 3;
        int CUDA_MEMCPY_HTOD(unsigned hyper, mem_data) = 4;
        mem_data CUDA_MEMCPY_DTOH(unsigned hyper, unsigned hyper) = 5;
        int CUDA_LAUNCH_KERNEL(launch_args) = 6;
        dev_info CUDA_GET_DEVICE_PROPERTIES(int) = 7;
    } = 1;
} = 0x20000ade;
`

func TestLexBasics(t *testing.T) {
	toks, err := Lex("const FOO = 0x2a; // comment\nstruct s { int a; };")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"const", "FOO", "=", "0x2a", ";", "struct", "s", "{", "int", "a", ";", "}", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[3] != TokNumber {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("/* block\nmultiline */ int // line\n# preprocessor\n% passthrough\nx")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "int" || toks[1].Text != "x" {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := Lex("/* never closed"); err == nil {
		t.Fatal("want error for unterminated comment")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestParseMiniSpec(t *testing.T) {
	spec, err := Parse(miniSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Consts) != 2 || spec.Consts[0].Name != "MAX_NAME" || spec.Consts[0].Value != 64 {
		t.Fatalf("consts = %+v", spec.Consts)
	}
	if spec.Consts[1].Value != 0x100000 {
		t.Fatalf("hex const = %d", spec.Consts[1].Value)
	}
	if len(spec.Enums) != 1 || len(spec.Enums[0].Members) != 3 {
		t.Fatalf("enums = %+v", spec.Enums)
	}
	if len(spec.Structs) != 2 {
		t.Fatalf("structs = %d", len(spec.Structs))
	}
	di := spec.Structs[0]
	if di.Name != "dev_info" || len(di.Fields) != 5 {
		t.Fatalf("dev_info = %+v", di)
	}
	if di.Fields[0].Kind != DeclVarArr || di.Fields[0].Type.Kind != BaseString || di.Fields[0].Size != "MAX_NAME" {
		t.Fatalf("name field = %+v", di.Fields[0])
	}
	if di.Fields[1].Type.Kind != BaseUHyper {
		t.Fatalf("total_mem = %+v", di.Fields[1])
	}
	if len(spec.Unions) != 1 {
		t.Fatalf("unions = %d", len(spec.Unions))
	}
	u := spec.Unions[0]
	if u.Disc.Name != "err" || len(u.Cases) != 1 || u.Default == nil || u.Default.Kind != DeclVoid {
		t.Fatalf("union = %+v", u)
	}
	if len(spec.Typedefs) != 1 || spec.Typedefs[0].Decl.Type.Kind != BaseOpaque {
		t.Fatalf("typedefs = %+v", spec.Typedefs)
	}
	if len(spec.Programs) != 1 {
		t.Fatalf("programs = %d", len(spec.Programs))
	}
	prog := spec.Programs[0]
	if prog.Number != 0x20000ade || len(prog.Versions) != 1 {
		t.Fatalf("program = %+v", prog)
	}
	v := prog.Versions[0]
	if v.Number != 1 || len(v.Procs) != 8 {
		t.Fatalf("version = %+v", v)
	}
	if v.Procs[0].Name != "NOOP" || v.Procs[0].Ret.Kind != BaseVoid || len(v.Procs[0].Args) != 0 {
		t.Fatalf("proc 0 = %+v", v.Procs[0])
	}
	if v.Procs[4].Name != "CUDA_MEMCPY_HTOD" || len(v.Procs[4].Args) != 2 {
		t.Fatalf("proc 4 = %+v", v.Procs[4])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"missing semicolon", "const A = 1", "expected"},
		{"bad keyword", "frobnicate x;", "definition keyword"},
		{"string without declarator", "struct s { string a; };", "string requires"},
		{"opaque without declarator", "struct s { opaque a; };", "opaque requires"},
		{"fixed array no size", "struct s { int a[]; };", "requires a size"},
		{"union no cases", "union u switch (int d) { default: void; };", "no cases"},
		{"typedef void", "typedef void;", "typedef of void"},
		{"optional string", "struct s { string *a; };", "cannot be optional"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"dup const", "const A = 1; const A = 2;", "redefined"},
		{"dup type", "struct s { int a; }; enum s { X = 1 };", "redefined"},
		{"unknown type", "struct s { nothere a; };", "unknown type"},
		{"unknown bound", "struct s { int a<NOPE>; };", "neither a number nor a defined const"},
		{"dup field", "struct s { int a; int a; };", "repeated"},
		{"dup enum member", "enum e { A = 1, A = 2 };", "repeated"},
		{"dup case", "enum e { A = 1 }; union u switch (int d) { case 1: int x; case 1: int y; };", "case 1 repeated"},
		{"bad case ident", "union u switch (int d) { case NOPE: int x; };", "neither a number nor an enum member"},
		{"dup proc number", "program p { version v { int A(void) = 1; int B(void) = 1; } = 1; } = 1;", "used by both"},
		{"dup prog number", "program p { version v { int A(void) = 1; } = 1; } = 7; program q { version w { int B(void) = 1; } = 1; } = 7;", "used by both"},
		{"unknown ret type", "program p { version v { nope A(void) = 1; } = 1; } = 1;", "unknown return type"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", c.src)
			}
			var ce *CheckError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %T %v, want CheckError", err, err)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestGoName(t *testing.T) {
	cases := map[string]string{
		"CUDA_GET_DEVICE_COUNT": "CudaGetDeviceCount",
		"mem_data":              "MemData",
		"dev_info":              "DevInfo",
		"RPC_CD_PROG":           "RpcCdProg",
		"already":               "Already",
		"x":                     "X",
	}
	for in, want := range cases {
		if got := goName(in); got != want {
			t.Errorf("goName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGenerateCompilableGo(t *testing.T) {
	spec, err := Parse(miniSpec)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(spec, GenOptions{Package: "mini"})
	if err != nil {
		t.Fatalf("Generate: %v\n----\n%s", err, src)
	}
	// The generated file must be syntactically valid Go.
	fset := token.NewFileSet()
	if _, err := goparser.ParseFile(fset, "mini.go", src, goparser.AllErrors); err != nil {
		t.Fatalf("generated code does not parse: %v\n----\n%s", err, src)
	}
	// Spot-check the essential shapes (whitespace-collapsed: gofmt aligns columns).
	text := strings.Join(strings.Fields(string(src)), " ")
	for _, want := range []string{
		"package mini",
		"MaxName = 64",
		"type CudaError int32",
		"CudaSuccess CudaError = 0",
		"type DevInfo struct {",
		"TotalMem uint64",
		"type MemData []byte",
		"type PtrResult struct {",
		"const RpcCdProg = 0x20000ade",
		"ProcCudaGetDeviceCount = 1",
		"var RpcCdVersProcNames = [...]string{",
		`ProcCudaGetDeviceCount: "CUDA_GET_DEVICE_COUNT",`,
		"type RpcCdVersClient struct",
		"func (c *RpcCdVersClient) CudaMalloc(a0 uint64) (PtrResult, error)",
		"func (c *RpcCdVersClient) CudaGetDeviceCount() (int32, error)",
		"func (c *RpcCdVersClient) Noop() error",
		"type RpcCdVersHandler interface {",
		"func RegisterRpcCdVers(srv *oncrpc.Server, h RpcCdVersHandler)",
		"oncrpc.ErrProcUnavail",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateFixedArrays(t *testing.T) {
	spec, err := Parse(`
struct m { int vals[4]; opaque uuid[16]; float fs<8>; };
program p { version v { m GET(void) = 1; } = 1; } = 0x20000001;
`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(spec, GenOptions{Package: "arr"})
	if err != nil {
		t.Fatalf("Generate: %v\n%s", err, src)
	}
	fset := token.NewFileSet()
	if _, err := goparser.ParseFile(fset, "arr.go", src, goparser.AllErrors); err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	text := strings.Join(strings.Fields(string(src)), " ")
	for _, want := range []string{"Vals []int32", "Uuid []byte", "Fs []float32"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in\n%s", want, text)
		}
	}
}

func TestGenerateBoolAndOptional(t *testing.T) {
	spec, err := Parse(`
struct node { int v; node *next; };
union ub switch (bool ok) { case TRUE: int val; case FALSE: void; };
program p { version v { bool PING(bool) = 1; } = 1; } = 0x20000002;
`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(spec, GenOptions{Package: "opt"})
	if err != nil {
		t.Fatalf("Generate: %v\n%s", err, src)
	}
	fset := token.NewFileSet()
	if _, err := goparser.ParseFile(fset, "opt.go", src, goparser.AllErrors); err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	text := strings.Join(strings.Fields(string(src)), " ")
	for _, want := range []string{"Next *Node", "case true:", "func (c *VClient) Ping(a0 bool) (bool, error)"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in\n%s", want, text)
		}
	}
}

func TestParseVoidOnlyParameter(t *testing.T) {
	_, err := Parse("program p { version v { int A(void, int) = 1; } = 1; } = 1;")
	if err == nil || !strings.Contains(err.Error(), "void must be the only parameter") {
		t.Fatalf("err = %v", err)
	}
}

// Property: the parser never panics on arbitrary input strings.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(src string) bool {
		Parse(src)
		Lex(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Mutations of a valid spec reach deeper parser states.
	g := func(pos uint16, repl byte) bool {
		b := []byte(miniSpec)
		b[int(pos)%len(b)] = repl
		Parse(string(b))
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
