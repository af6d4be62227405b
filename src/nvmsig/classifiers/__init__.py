from .evaluate import CrossValResult, EvalReport, cross_validate, evaluate, fold_assignments
from .model import (
    KINDS,
    PARAMS,
    TrainedModel,
    load_model,
    predict,
    predict_detail,
    save_model,
    train,
    train_knn,
    train_svm,
    train_tree,
)

__all__ = [
    "KINDS", "PARAMS", "TrainedModel", "train", "train_knn", "train_tree", "train_svm",
    "predict", "predict_detail", "save_model", "load_model",
    "evaluate", "cross_validate", "EvalReport", "CrossValResult",
    "fold_assignments",
]
