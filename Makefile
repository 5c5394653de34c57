# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml and scripts/lint.sh).

.PHONY: build test race lint lint-fast fuzz-smoke pipebench

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The pipeline benchmark is its own Go module (replace ../), so ./... above
# does not reach it; this keeps it building against the repo's APIs.
pipebench:
	cd pipebench && go vet ./... && go test ./...

# Full lint: gofmt, go vet, sqlmlvet, pinned staticcheck + govulncheck.
lint:
	scripts/lint.sh

# Inner loop: gofmt + the sqlmlvet suite only (seconds, stdlib-only).
lint-fast:
	scripts/lint.sh --fast

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzKeyCodec$$' -fuzztime 10s ./internal/row
	go test -run '^$$' -fuzz '^FuzzBlockFrame$$' -fuzztime 10s ./internal/row
