#!/usr/bin/env bash
# End-to-end CLI workflow on a generated dataset. Small model sizes keep it
# under a minute; drop the size flags for the full-size architecture.
set -euo pipefail

WORK=$(mktemp -d)
SIZES=(--embed-dim 12 --units 16 --metadata-sizes 32,16
       --recurrent-dropout 0.25 --batch-size 128 --max-epochs 20 --patience 5 --folds 3)

abusenet synth --task groups --samples 800 --seed 1 --out "$WORK/data"

abusenet train --dataset "$WORK/data/dataset.csv" --schema "$WORK/data/schema.json" \
    --strategy interleaved --mask WV+TF+UF --seed 0 --out "$WORK/run" "${SIZES[@]}"

abusenet evaluate --checkpoint "$WORK/run/model.ckpt" \
    --dataset "$WORK/data/dataset.csv" --schema "$WORK/data/schema.json" \
    --out "$WORK/eval.json"

abusenet ablate --dataset "$WORK/data/dataset.csv" --schema "$WORK/data/schema.json" \
    --masks "WV;UF;WV+TF+UF" --seed 0 --out "$WORK/ablation.json" "${SIZES[@]}"

abusenet baseline --dataset "$WORK/data/dataset.csv" --schema "$WORK/data/schema.json" \
    --folds 3 --out "$WORK/baseline.json"

echo "artifacts in $WORK"
