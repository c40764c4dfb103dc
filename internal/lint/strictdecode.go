package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// StrictDecodeAnalyzer enforces the strict-decoding contract: every JSON
// decode of bytes that may originate outside the process (wire frames,
// checkpoints, lab summaries, trace files, HTTP and SSE bodies) goes
// through wire.UnmarshalStrict, which rejects unknown fields and trailing
// garbage. Raw encoding/json decodes silently drop misspelled fields — a
// torn contract the fuzz targets cannot reach from the outside.
//
// Flagged calls: encoding/json.Unmarshal and (*encoding/json.Decoder).Decode
// in non-test files. Deliberately lenient sites (the strict decoder's own
// implementation, the lenient frame-envelope peek, the checkpoint probe
// that tells a bare snapshot from an envelope) carry
// //moblint:rawdecode <reason>.
var StrictDecodeAnalyzer = &analysis.Analyzer{
	Name:     "strictdecode",
	Doc:      "flags raw encoding/json decodes that bypass wire.UnmarshalStrict",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runStrictDecode,
}

func runStrictDecode(pass *analysis.Pass) (interface{}, error) {
	supp := gatherSuppressions(pass, "rawdecode")
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok {
			return
		}
		var what string
		switch fn.FullName() {
		case "encoding/json.Unmarshal":
			what = "json.Unmarshal"
		case "(*encoding/json.Decoder).Decode":
			what = "(*json.Decoder).Decode"
		default:
			return
		}
		if inTestFile(pass.Fset, call.Pos()) || supp.covers(call.Pos()) {
			return
		}
		pass.Reportf(call.Pos(),
			"%s on possibly-external bytes: decode through wire.UnmarshalStrict, or annotate //moblint:rawdecode <reason>",
			what)
	})
	return nil, nil
}
