# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt bench loc clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The second line keeps the non-amd64 stubs of the assembly bodies
# (internal/mod/vec_amd64.s, internal/ntt/stage_amd64.s,
# internal/ring/seed_amd64.s) compiling; it cross-compiles offline.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "files need gofmt:"; echo "$$unformatted"; exit 1; fi

# bench runs the one instrument (bench/README.md): two full sets of the
# five BENCHMARK.json workloads, compared with each other against the
# declared bounds. It exits non-zero on a wrong output, a failed
# operation, an inexact count or a dependency violation.
bench:
	$(GO) run ./bench -workload all -sets 2

# loc prints, per package under internal/ and cmd/, the Go lines of its
# non-test files that are neither blank nor a // comment, then their sum.
loc:
	@total=0; \
	for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l); \
		printf '%6d %s\n' $$n $$d; total=$$((total + n)); \
	done; \
	printf '%6d total\n' $$total

clean:
	rm -rf bin bench/out
