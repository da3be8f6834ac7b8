// Package atomicwrite enforces the PR 2 durability contract: every
// durable artifact (CSVs, profiles, manifests, the tenant store)
// is written through internal/atomicio's write-temp+fsync+rename path,
// never with a direct os.WriteFile / os.Create / write-mode os.OpenFile.
// A direct write that is interrupted by a crash or Ctrl-C leaves a torn
// file that a later reader then trusts — exactly the failure class
// atomicio was built to remove.
//
// Exempt: the internal/atomicio package itself (it is the one place the
// raw primitives are allowed), _test.go files (scratch fixtures are not
// durable artifacts), os.CreateTemp (scratch by construction — this is
// also what admits internal/obs's streamed profile writer, which streams
// CPU profiles and execution traces into a CreateTemp scratch file and
// publishes it with the same sync+rename protocol atomicio uses), and
// read-only os.OpenFile calls.
package atomicwrite

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"strings"

	"partitionshare/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc: "durable writes must go through internal/atomicio, not direct " +
		"os.WriteFile/os.Create/write-mode os.OpenFile or the deprecated io/ioutil",
	Run: run,
}

// writeFlagMask are the os.OpenFile flag bits that make a call a write.
// os.O_RDONLY is zero, so a read-only open never has any of these set.
const writeFlagMask = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/atomicio") {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "io/ioutil":
				pass.Reportf(call.Pos(),
					"io/ioutil is deprecated and bypasses the atomic-write contract; use os for reads and internal/atomicio for durable writes")
			case "os":
				switch sel.Sel.Name {
				case "WriteFile", "Create":
					pass.Reportf(call.Pos(),
						"direct os.%s writes a durable artifact non-atomically; use internal/atomicio.WriteFile (write-temp+fsync+rename)", sel.Sel.Name)
				case "OpenFile":
					if openFileWrites(pass, call) {
						pass.Reportf(call.Pos(),
							"os.OpenFile with write flags bypasses internal/atomicio; durable artifacts must be written atomically")
					}
				}
			}
			return true
		})
	}
	return nil
}

// openFileWrites reports whether an os.OpenFile call can write: its flag
// argument is a constant containing a write bit, or is not constant (in
// which case we cannot prove it read-only and flag it).
func openFileWrites(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true
	}
	flags, ok := constant.Int64Val(tv.Value)
	return !ok || flags&int64(writeFlagMask) != 0
}
