#!/bin/sh
# Run every subcommand on fixed inputs and list the sha256 of each output
# file, stdout included. Run it on two checkouts and diff the listings to
# show that a change keeps the outputs byte for byte:
#
#   scripts/output_parity.sh SRC_DIR OUT_DIR > listing.txt
#
# SRC_DIR is the checkout's src/ directory; OUT_DIR must not exist yet.
set -eu
src=$(cd "$1" && pwd)
mkdir "$2"
cd "$2"     # relative paths, so that printed paths match across checkouts

run() {
    name=$1
    shift
    mkdir -p "$name"
    PYTHONPATH="$src" OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \
        python3 -m feddiar.cli "$@" --out-dir "$name" > "$name/stdout"
}

run synth synth --seed 7 --num-speakers 4 --prefix conv
wav=synth/conv.wav
truth=synth/conv.truth.json

run fedsim-non_iid fedsim --mode non_iid
run fedsim-iid fedsim --mode iid
run fedsim-centralized fedsim --mode centralized
run fedsim-hidden fedsim --hidden 16,8
model=fedsim-non_iid/fed_model.npz

cat > tuned.cfg <<CFG
slide_frames = 30
grow_frames = 20
lambda = 1.5
delta_k = 60
min_region_frames = 8
noise_percentile = 0.2
CFG
tuned="--method bic --window-frames 100 --stride-fraction 0.4 --config tuned.cfg"

for variant in default tuned; do
    if [ "$variant" = tuned ]; then flags=$tuned; else flags=; fi
    run "segment-$variant" segment --audio "$wav" $flags
    run "cluster-$variant" cluster --audio "$wav" $flags
    run "identify-$variant" identify --audio "$wav" --model "$model" $flags
    run "diarize-$variant" diarize --audio "$wav" --model "$model" \
        --truth "$truth" $flags
done

run sweep sweep --num-conversations 2
run eval eval --truth "$truth" --detected segment-default/change_points.csv

find . -type f | LC_ALL=C sort | xargs sha256sum
