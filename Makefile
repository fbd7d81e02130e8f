# Developer entry points; CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt bench clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "files need gofmt:"; echo "$$unformatted"; exit 1; fi

# bench runs the one instrument (bench/README.md): two full sets of the
# five BENCHMARK.json workloads, compared with each other against the
# declared bounds. It exits non-zero on a wrong output, a failed
# operation, an inexact count or a dependency violation.
bench:
	$(GO) run ./bench -workload all -sets 2

clean:
	rm -rf bin bench/out
