package pcode_test

import (
	"testing"

	"saql/internal/ast"
	"saql/internal/event"
	"saql/internal/expr"
	"saql/internal/parser"
	"saql/internal/pcode"
	"saql/internal/sema"
	"saql/internal/value"
)

// attrNames is every attribute name and alias of every entity type and of
// events, plus names nothing has.
var attrNames = []string{
	"exe_name", "exename", "exe", "name", "pid", "user", "username", "cmdline", "cmd", "args",
	"path", "filename", "file_name", "basename",
	"srcip", "src_ip", "sip", "dstip", "dst_ip", "dip", "sport", "src_port", "srcport",
	"dport", "dst_port", "dstport", "protocol", "proto",
	"amount", "amt", "bytes", "agentid", "agent_id", "host", "time", "ts", "timestamp", "id",
	"optype", "op", "operation",
	"bogus", "Pid", "",
}

// TestOneAttributeTable walks every (entity type × name) and (event × name)
// pair through semantic analysis and through the compiler in both scopes:
// sema accepts the access exactly when it compiles to a load — one that reads
// a bound variable without error, never a raise — and the load reads what the
// oracle's own table (expr.EntityAttr, expr.EventAttr) reads.
func TestOneAttributeTable(t *testing.T) {
	objects := map[event.EntityType]event.Entity{
		event.EntityProcess: {Type: event.EntityProcess, ExeName: "osql.exe", PID: 42, User: "dba", CmdLine: "osql -E"},
		event.EntityFile:    event.File(`C:\db\backup1.dmp`),
		event.EntityNetConn: event.NetConn("10.0.0.5", 49152, "172.16.0.129", 443),
	}
	keyword := map[event.EntityType]string{event.EntityProcess: "start proc", event.EntityFile: "read file", event.EntityNetConn: "write ip"}

	for typ, obj := range objects {
		ev := &event.Event{ID: 7, AgentID: "db-1", Subject: event.Process("cmd.exe", 1), Op: event.OpRead, Object: obj, Amount: 12.5}
		perEvent := pcode.Binding{SubjVar: "p", ObjVar: "o", Alias: "e", SubjType: event.EntityProcess, ObjType: typ}.Scope()
		closeScope := &pcode.Scope{
			Entities: []pcode.EntityVar{{Name: "o", Type: typ, Slot: 0}},
			Events:   []pcode.EventVar{{Name: "e", Slot: 0}},
		}
		frames := map[*pcode.Scope]*pcode.Frame{
			perEvent:   {Event: ev},
			closeScope: {Entities: []*event.Entity{&ev.Object}, Events: []*event.Event{ev}},
		}
		for _, name := range attrNames {
			for _, base := range []string{"o", "e"} {
				access := &ast.FieldExpr{Base: &ast.Ident{Name: base}, Field: name}
				q, err := parser.Parse("proc p " + keyword[typ] + " o as e return p")
				if err != nil {
					t.Fatal(err)
				}
				q.Return.Items[0].Expr = access
				_, semaErr := sema.Check(q)
				accepted := semaErr == nil

				want, exists := expr.EntityAttr(&ev.Object, name)
				if base == "e" {
					want, exists = expr.EventAttr(ev, name)
				}
				if accepted != exists {
					t.Errorf("%s %s: sema accepts=%v, the oracle's table has it=%v", typ, access, accepted, exists)
				}
				for scope, frame := range frames {
					stack := make([]value.Value, 1)
					err := pcode.CompileExpr(access, scope).Run(frame, stack)
					if loads := err == nil; loads != accepted {
						t.Errorf("%s %s: sema accepts=%v but the program's outcome is %v", typ, access, accepted, err)
					}
					if err == nil && !sameValue(stack[0], want) {
						t.Errorf("%s %s = %s(%s), oracle %s(%s)", typ, access, stack[0].Kind(), stack[0], want.Kind(), want)
					}
				}
			}
		}
	}
}
