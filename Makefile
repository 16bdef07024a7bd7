GO ?= go
FUZZTIME ?= 10

.PHONY: build test race vet fuzz soak check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

soak:
	$(GO) test ./internal/chaos -run TestChaosSoak -chaos.seeds 25

fuzz:
	scripts/check.sh $(FUZZTIME)

# The full local gate: vet + build + race tests + chaos soak + a short
# fuzz smoke per codec package.
check:
	scripts/check.sh $(FUZZTIME)
